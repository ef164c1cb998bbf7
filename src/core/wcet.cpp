#include "core/wcet.hpp"

#include <algorithm>

#include "dram/scheduler.hpp"

namespace edsim::core {

namespace {

double max3(double a, double b, double c) {
  return std::max(a, std::max(b, c));
}

/// Cycles the data bus forces between two column commands (the command
/// spacing the checker's tCCD rule and the burst occupancy both impose).
unsigned column_spacing(const dram::DramConfig& cfg) {
  return std::max(cfg.data_cycles_per_access(), cfg.timing.tCCD);
}

/// Worst-case cycles from "this request is at the head and nothing else
/// will be scheduled ahead of it" to its data returned: evict a
/// just-activated conflicting row (tRAS / write recovery / read-to-PRE),
/// precharge, re-activate against the channel ACT constraints, wait out
/// the data bus and a turnaround, then the access itself (+ ECC decode).
/// A few cycles of command-arbitration slack are added: each of the up to
/// three commands spends one cycle on the command bus, and releases are
/// sampled once per cycle.
double worst_service_cycles(const dram::DramConfig& cfg) {
  const dram::TimingParams& t = cfg.timing;
  const double dc = cfg.data_cycles_per_access();
  const double rw_lat = std::max(t.tCL, t.tWL);
  const double pre_wait = max3(t.tRAS, t.tRCD + t.tWL + dc + t.tWR,
                               t.tRCD + static_cast<double>(t.burst_length));
  const double act_wait = std::max(t.tRRD, t.tFAW);
  const double col_wait = dc + std::max(t.tWTR, t.tRTW) + rw_lat;
  const double data = rw_lat + dc +
                      (cfg.ecc_enabled ? cfg.ecc_latency_cycles : 0);
  return pre_wait + t.tRP + act_wait + t.tRCD + col_wait + data + 4.0;
}

/// Cycles one competing request can add to the head's wait: its column
/// command occupies the bus for a burst plus a turnaround, its ACT eats
/// a tRRD window, and its commands take command-bus slots.
double interference_cost(const dram::DramConfig& cfg) {
  const dram::TimingParams& t = cfg.timing;
  return cfg.data_cycles_per_access() + std::max(t.tWTR, t.tRTW) + t.tRRD +
         2.0;
}

/// Aggregate worst-case arrival rate (requests per cycle) of `clients`,
/// optionally restricted to one TDM slot class.
double arrival_rate(const std::vector<WcetClient>& clients,
                    bool slot_only, unsigned num_slots, unsigned slot) {
  double r = 0.0;
  for (const WcetClient& c : clients) {
    if (slot_only && c.client_id % num_slots != slot) continue;
    r += 1.0 / std::max(1u, c.period_cycles);
  }
  return r;
}

/// Per-client bandwidth ceiling in bytes/cycle: its own pacing, and under
/// TDM its slot quota (floor(S/spacing)+1 column commands per owned slot,
/// one slot per rotation).
double client_rate(const dram::DramConfig& cfg, const WcetClient& c) {
  const double bpa = cfg.bytes_per_access();
  double rate = bpa / std::max(1u, c.period_cycles);
  if (cfg.scheduler == dram::SchedulerKind::kTdm) {
    const double per_slot =
        static_cast<double>(cfg.tdm_slot_cycles / column_spacing(cfg)) + 1.0;
    const double rotation = static_cast<double>(cfg.tdm_slot_cycles) *
                            cfg.tdm_clients;
    rate = std::min(rate, per_slot * bpa / rotation);
  }
  return rate;
}

}  // namespace

WcetAnalysis analyze_wcet(const dram::DramConfig& cfg,
                          const std::vector<WcetClient>& clients) {
  const dram::TimingParams& t = cfg.timing;
  WcetAnalysis a;
  a.service_cycles = worst_service_cycles(cfg);

  // --- how long can one request stay the oldest? ---------------------------
  // kFcfs: nothing else is ever scheduled while the head waits, so the
  // head is served within one worst-case service time. Every other policy
  // can schedule younger work while the head is blocked on a timing
  // constraint; each such interferer costs at most `icost` cycles, and the
  // paced client set produces them at rate R, giving the fixed point
  // T = base / (1 - R * icost). FR-FCFS-class policies additionally let
  // the head starve for up to their cap before age order kicks in; TDM
  // waits for the owner's slot — each of the head's (at most three)
  // commands can miss a slot boundary and wait a full rotation, and only
  // same-slot clients can interfere.
  const double icost = interference_cost(cfg);
  double base = a.service_cycles;
  double rate = 0.0;
  bool bounded = true;
  switch (cfg.scheduler) {
    case dram::SchedulerKind::kFcfs:
      break;
    case dram::SchedulerKind::kFcfsPerBank:
      rate = arrival_rate(clients, false, 1, 0);
      break;
    case dram::SchedulerKind::kFrFcfs:
      base += static_cast<double>(dram::kFrFcfsStarvationCap);
      rate = arrival_rate(clients, false, 1, 0);
      break;
    case dram::SchedulerKind::kReadFirst:
      base += static_cast<double>(dram::kReadFirstStarvationCap);
      rate = arrival_rate(clients, false, 1, 0);
      break;
    case dram::SchedulerKind::kTdm: {
      const double rotation =
          static_cast<double>(cfg.tdm_slot_cycles) * cfg.tdm_clients;
      base += 4.0 * rotation;
      double worst_slot_rate = 0.0;
      for (unsigned s = 0; s < cfg.tdm_clients; ++s) {
        worst_slot_rate = std::max(
            worst_slot_rate, arrival_rate(clients, true, cfg.tdm_clients, s));
      }
      rate = worst_slot_rate;
      break;
    }
  }
  const double interference = rate * icost;
  if (interference >= 1.0) bounded = false;
  a.front_cycles = bounded ? base / (1.0 - interference) : 0.0;

  // --- refresh interference -------------------------------------------------
  // Each refresh event drains every open bank (one PRE per cycle, each
  // gated by up to a full precharge wait), waits tRP, then blocks for a
  // burst of tRFC windows. Events recur once per tREFI on average, so
  // blocked time inflates any interval by the fixed point
  // L = base + (L/tREFI + 1 + burst) * E_ref.
  double refresh_event = 0.0;
  if (cfg.refresh_enabled) {
    const double dc = cfg.data_cycles_per_access();
    const double pre_wait = max3(t.tRAS, t.tRCD + t.tWL + dc + t.tWR,
                                 t.tRCD + static_cast<double>(t.burst_length));
    refresh_event = cfg.banks * (pre_wait + 1.0) + t.tRP +
                    static_cast<double>(cfg.refresh_burst) * t.tRFC + 4.0;
    if (refresh_event >= t.tREFI) bounded = false;
  }

  if (bounded) {
    // A request entering a queue of depth Q has at most Q - 1 requests
    // (plus in-flight work, covered by the service bound's bus terms)
    // ahead of it; each holds the head for at most front_cycles. Power-
    // down exit adds one tXP wake.
    double lat = static_cast<double>(cfg.queue_depth) * a.front_cycles;
    if (cfg.powerdown_enabled) lat += cfg.tXP + 1.0;
    if (cfg.refresh_enabled) {
      const double denom = 1.0 - refresh_event / t.tREFI;
      a.refresh_inflation =
          (1.0 + (1.0 + cfg.refresh_burst) * refresh_event / lat) / denom;
      lat = (lat + (1.0 + cfg.refresh_burst) * refresh_event) / denom;
    }
    a.latency_bounded = true;
    a.latency_cycles = lat;
    a.latency_ns = lat * cfg.clock.period_ns();
  }

  // --- bandwidth upper bound ------------------------------------------------
  // The data bus serializes column commands `column_spacing` apart, and no
  // client can exceed its own pacing (or, under TDM, its slot quota).
  const double bpa = cfg.bytes_per_access();
  const double bus_rate = bpa / column_spacing(cfg);
  double sum_rate = 0.0;
  for (const WcetClient& c : clients) sum_rate += client_rate(cfg, c);
  const double per_cycle =
      clients.empty() ? bus_rate : std::min(bus_rate, sum_rate);
  // bytes/cycle * cycles/s = bytes/s; clock is in MHz.
  a.bandwidth_gbyte_s = per_cycle * cfg.clock.mhz * 1e6 / 1e9;
  return a;
}

std::uint64_t wcet_max_bytes(const dram::DramConfig& cfg,
                             const std::vector<WcetClient>& clients,
                             std::uint64_t window_cycles) {
  const std::uint64_t bpa = cfg.bytes_per_access();
  const std::uint64_t spacing = column_spacing(cfg);
  const std::uint64_t bus_bound = (window_cycles / spacing + 1) * bpa;
  if (clients.empty()) return bus_bound;

  std::uint64_t accesses = 0;
  for (const WcetClient& c : clients) {
    std::uint64_t n =
        window_cycles / std::max(1u, c.period_cycles) + 2;
    if (c.total_requests != 0) n = std::min(n, c.total_requests);
    if (cfg.scheduler == dram::SchedulerKind::kTdm) {
      const std::uint64_t rotation =
          static_cast<std::uint64_t>(cfg.tdm_slot_cycles) * cfg.tdm_clients;
      const std::uint64_t slots = window_cycles / rotation + 2;
      const std::uint64_t per_slot = cfg.tdm_slot_cycles / spacing + 1;
      n = std::min(n, slots * per_slot);
    }
    accesses += n;
  }
  // Up to a full queue of pre-window arrivals can drain inside the window.
  accesses += cfg.queue_depth;
  return std::min(bus_bound, accesses * bpa);
}

}  // namespace edsim::core
