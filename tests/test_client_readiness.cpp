// The readiness rule every memory client keeps
// (Client::next_request_cycle, from which has_request derives): once
// ready it stays ready until the client is granted (make_request) or
// receives a completion (notify_complete); a wake-up
// w = next_request_cycle(now) > now promises no readiness on [now, w)
// and readiness at w itself; and a completion changes the answer only of
// a client that reported kNeverCycle (completion-blocked). The memory
// system's dense stretch credits full-queue stretches as stalls on the
// strength of the first rule, its quiet stretch leaps to the wake-up and
// its client scan reads a cached answer on the strength of the second,
// and deliveries wait for the next stretch boundary on the strength of
// the third, so every client in the tree is walked here through seeded
// cycle walks with random grants and completions.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clients/client.hpp"
#include "clients/compiled_trace.hpp"
#include "clients/extra_clients.hpp"
#include "clients/strided_gen.hpp"
#include "common/rng.hpp"
#include "mpeg/trace_gen.hpp"

namespace edsim::clients {
namespace {

constexpr unsigned kBurst = 32;
constexpr std::uint64_t kWalksPerClient = 12;
constexpr std::uint64_t kWalkCycles = 4'000;
/// How far past `now` an endless (kNeverCycle) wake-up is checked.
constexpr std::uint64_t kNeverHorizon = 300;

using Factory = std::function<std::unique_ptr<Client>(Rng&)>;

std::uint64_t some_total(Rng& rng) {
  return rng.next_bool(0.3) ? 0 : 1 + rng.next_below(200);
}

unsigned some_period(Rng& rng) {
  return static_cast<unsigned>(rng.next_below(12));
}

std::vector<TraceRecord> some_trace(Rng& rng) {
  std::vector<TraceRecord> t(1 + rng.next_below(150));
  std::uint64_t cycle = rng.next_below(50);
  for (TraceRecord& r : t) {
    cycle += rng.next_bool(0.3) ? 0 : rng.next_below(60);
    r.cycle = cycle;
    r.addr = rng.next_below(1 << 20);
    r.type = rng.next_bool(0.5) ? dram::AccessType::kRead
                                : dram::AccessType::kWrite;
  }
  return t;
}

/// An arena that switches between all four pacing kinds record by record.
std::shared_ptr<const CompiledTrace> mixed_pacing_arena(Rng& rng) {
  CompiledTraceBuilder b(rng.next_below(40));
  std::uint64_t at = 0;
  const std::uint64_t n = 1 + rng.next_below(200);
  for (std::uint64_t i = 0; i < n; ++i) {
    CompiledRecord r;
    r.addr = rng.next_below(1 << 20) / kBurst * kBurst;
    r.tag = i;
    r.pacing = static_cast<PacingKind>(rng.next_below(4));
    switch (r.pacing) {
      case PacingKind::kAtCycle:
        at += rng.next_below(80);
        r.param = at;
        break;
      case PacingKind::kAfterAccept:
      case PacingKind::kPacedClock:
        r.param = rng.next_below(40);
        break;
      case PacingKind::kImmediate:
        break;
    }
    b.add(r);
  }
  return b.build();
}

mpeg::McClient::Params some_mc(Rng& rng) {
  mpeg::McClient::Params p;
  p.region_bytes = 1 << 18;
  p.pitch_bytes = 720;
  p.rows_per_block = 1 + static_cast<unsigned>(rng.next_below(17));
  p.burst_bytes = kBurst;
  p.block_period_cycles = 1 + rng.next_below(120);
  p.total_blocks = rng.next_bool(0.3) ? 0 : 1 + rng.next_below(20);
  p.seed = rng.next_below(1'000);
  return p;
}

std::vector<std::pair<std::string, Factory>> roster() {
  std::vector<std::pair<std::string, Factory>> r;
  r.emplace_back("Stream", [](Rng& rng) -> std::unique_ptr<Client> {
    StreamClient::Params p;
    p.length = 1 << 16;
    p.burst_bytes = kBurst;
    p.period_cycles = some_period(rng);
    p.total_requests = some_total(rng);
    p.start_cycle = rng.next_below(100);
    return std::make_unique<StreamClient>(0, "stream", p);
  });
  r.emplace_back("Strided", [](Rng& rng) -> std::unique_ptr<Client> {
    StridedClient::Params p;
    p.length = 1 << 16;
    p.burst_bytes = kBurst;
    p.stride_bytes = 1024;
    p.period_cycles = some_period(rng);
    p.total_requests = some_total(rng);
    return std::make_unique<StridedClient>(0, "strided", p);
  });
  r.emplace_back("Random", [](Rng& rng) -> std::unique_ptr<Client> {
    RandomClient::Params p;
    p.length = 1 << 16;
    p.burst_bytes = kBurst;
    p.period_cycles = some_period(rng);
    p.total_requests = some_total(rng);
    p.seed = rng.next_below(1'000);
    return std::make_unique<RandomClient>(0, "random", p);
  });
  r.emplace_back("SimdStrided", [](Rng& rng) -> std::unique_ptr<Client> {
    SimdStridedClient::Params p;
    p.width_bytes = 1024;
    p.height = 16;
    p.burst_bytes = kBurst;
    p.tile_width_bytes = 256;
    p.tile_height = 4;
    p.pattern = static_cast<StridePattern>(rng.next_below(3));
    p.period_cycles = some_period(rng);
    p.total_requests = some_total(rng);
    return std::make_unique<SimdStridedClient>(0, "simd", p);
  });
  r.emplace_back("Trace", [](Rng& rng) -> std::unique_ptr<Client> {
    return std::make_unique<TraceClient>(0, "trace", some_trace(rng), kBurst);
  });
  r.emplace_back("ArenaAtCycle", [](Rng& rng) -> std::unique_ptr<Client> {
    return std::make_unique<ArenaReplayClient>(
        0, "arena", compile_trace_records(some_trace(rng), kBurst));
  });
  r.emplace_back("ArenaAfterAccept", [](Rng& rng) -> std::unique_ptr<Client> {
    StreamClient::Params p;
    p.length = 1 << 16;
    p.burst_bytes = kBurst;
    p.period_cycles = some_period(rng);
    p.total_requests = 1 + rng.next_below(200);
    p.start_cycle = rng.next_below(100);
    return std::make_unique<ArenaReplayClient>(0, "arena", compile_stream(p));
  });
  r.emplace_back("ArenaPacedClock", [](Rng& rng) -> std::unique_ptr<Client> {
    // kPacedClock block heads followed by kImmediate rows.
    return std::make_unique<ArenaReplayClient>(
        0, "arena", mpeg::compile_mc(some_mc(rng), 20));
  });
  r.emplace_back("ArenaMixedPacing", [](Rng& rng) -> std::unique_ptr<Client> {
    return std::make_unique<ArenaReplayClient>(0, "arena",
                                               mixed_pacing_arena(rng));
  });
  r.emplace_back("PointerChase", [](Rng& rng) -> std::unique_ptr<Client> {
    PointerChaseClient::Params p;
    p.length = 1 << 16;
    p.burst_bytes = kBurst;
    p.total_requests = some_total(rng);
    p.seed = rng.next_below(1'000);
    p.think_cycles = static_cast<unsigned>(rng.next_below(30));
    return std::make_unique<PointerChaseClient>(0, "chase", p);
  });
  r.emplace_back("Bursty", [](Rng& rng) -> std::unique_ptr<Client> {
    BurstyClient::Params p;
    p.length = 1 << 16;
    p.burst_bytes = kBurst;
    p.on_requests = 1 + static_cast<unsigned>(rng.next_below(8));
    p.off_cycles = static_cast<unsigned>(rng.next_below(60));
    p.total_requests = some_total(rng);
    p.seed = rng.next_below(1'000);
    p.randomize_gap = rng.next_bool(0.5);
    return std::make_unique<BurstyClient>(0, "bursty", p);
  });
  r.emplace_back("Mc", [](Rng& rng) -> std::unique_ptr<Client> {
    return std::make_unique<mpeg::McClient>(0, some_mc(rng));
  });
  return r;
}

/// One seeded walk: cycles advance by 1 or by a random leap; a ready
/// client is granted with some probability (a lost arbitration or a full
/// queue otherwise), and outstanding requests complete in random order
/// after a random delay.
void walk(Client& c, Rng& rng) {
  const double grant_p = rng.next_double();
  std::vector<std::pair<dram::Request, std::uint64_t>> outstanding;
  bool was_ready = false;  // ready at the last poll, no event since
  std::uint64_t t = 0;
  while (t < kWalkCycles) {
    // Deliver a matured completion, if any (the front end delivers before
    // it polls readiness).
    if (!outstanding.empty() && rng.next_bool(0.5)) {
      const std::size_t k = rng.next_below(outstanding.size());
      if (outstanding[k].second <= t) {
        const std::uint64_t before = c.next_request_cycle(t);
        c.notify_complete(outstanding[k].first, t);
        if (before != dram::kNeverCycle) {
          ASSERT_EQ(c.next_request_cycle(t), before)
              << "a completion at cycle " << t
              << " moved the readiness of a client that was not blocked";
        }
        outstanding.erase(outstanding.begin() +
                          static_cast<std::ptrdiff_t>(k));
        was_ready = false;
      }
    }

    const bool ready = c.has_request(t);
    ASSERT_FALSE(was_ready && !ready)
        << "readiness lapsed at cycle " << t
        << " without a grant or a completion";
    const std::uint64_t w = c.next_request_cycle(t);
    ASSERT_GE(w, t) << "wake-up in the past at cycle " << t;
    if (w > t) {
      // The first cycles of [t, w), its last one and a random sample.
      const std::uint64_t end =
          w == dram::kNeverCycle ? t + kNeverHorizon : w;
      std::vector<std::uint64_t> probe{end - 1};
      for (std::uint64_t u = t; u < std::min(end, t + 16); ++u) {
        probe.push_back(u);
      }
      for (int j = 0; j < 8; ++j) probe.push_back(t + rng.next_below(end - t));
      for (const std::uint64_t u : probe) {
        ASSERT_FALSE(c.has_request(u))
            << "ready at " << u << " before the wake-up " << w
            << " claimed at " << t;
      }
      if (w != dram::kNeverCycle) {
        ASSERT_TRUE(c.has_request(w))
            << "not ready at the wake-up " << w << " claimed at " << t;
      }
    }

    was_ready = ready;
    if (ready && rng.next_bool(grant_p)) {
      const dram::Request r = c.make_request(t);
      outstanding.emplace_back(r, t + 1 + rng.next_below(40));
      was_ready = false;
    }
    t += rng.next_bool(0.8) ? 1 : 1 + rng.next_below(80);
  }
}

TEST(ClientReadiness, ReadinessPersistsUntilGrantOrCompletion) {
  const auto clients = roster();
  for (std::size_t k = 0; k < clients.size(); ++k) {
    SCOPED_TRACE(clients[k].first);
    for (std::uint64_t i = 0; i < kWalksPerClient; ++i) {
      const std::uint64_t seed = derive_seed(0x4eadd1e55ULL, k * 1000 + i);
      SCOPED_TRACE("seed " + std::to_string(seed));
      Rng rng(seed);
      const std::unique_ptr<Client> c = clients[k].second(rng);
      walk(*c, rng);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace edsim::clients
