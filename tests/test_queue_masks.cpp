// Queue-position mask upkeep: the controller keeps its per-bank queued
// masks, the row-hit mask, the write mask and the TDM owner masks in step
// with its queue incrementally (enqueue, erase squeeze, ACT rebuild, row
// close). A controller restored from a snapshot rebuilds every mask from
// its queue instead. So a controller that ran on its incremental masks
// and a copy restored from it mid-run must issue the same commands,
// complete the same requests and end in the same state, across queue
// depths on both sides of the 64-bit word boundary, every policy and
// every page policy, with refresh, power-down, watchdog escalation and
// self-managed maintenance in play.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "dram/command_log.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"

namespace edsim::dram {
namespace {

/// Stateless self-managed maintenance: the schedule is a pure function of
/// the cycle, so a restored controller needs no hook state to agree.
class ScheduledMaintenance final : public ReliabilityHooks {
 public:
  explicit ScheduledMaintenance(unsigned banks) : banks_(banks) {}
  void on_cycle(std::uint64_t) override {}
  AccessOutcome on_access(const Coordinates&, AccessType,
                          std::uint64_t) override {
    return AccessOutcome::kClean;
  }
  void on_refresh(std::uint64_t) override {}
  bool self_managed() const override { return true; }
  MaintenanceBanks maintenance_banks(std::uint64_t cycle) const override {
    const std::uint64_t phase = cycle / 256;
    MaintenanceBanks m;
    m.pending = bank_bit(phase * 7) | bank_bit(phase * 3 + 1);
    // The last eighth of every 1024 cycles, one bank is past its deadline
    // and may pre-empt an open row.
    if (cycle % 1024 >= 896) m.urgent = bank_bit(cycle / 1024);
    return m;
  }
  unsigned maintenance_claim(unsigned, std::uint64_t) override { return 10; }
  std::uint64_t next_maintenance_cycle(std::uint64_t now) const override {
    return (now / 128 + 1) * 128;  // every schedule change is on this grid
  }
  bool bank_retired(unsigned) const override { return false; }
  const ReliabilityCounters& counters() const override { return counters_; }

 private:
  std::uint64_t bank_bit(std::uint64_t n) const {
    return std::uint64_t{1} << (n % banks_);
  }
  unsigned banks_;
  ReliabilityCounters counters_;
};

enum class Mode { kRefresh, kPowerDown, kSelfManaged };

/// One controller with its observers.
struct Rig {
  Rig(const DramConfig& cfg, Mode mode) : ctl(cfg), hooks(cfg.banks) {
    if (mode == Mode::kSelfManaged) ctl.attach_reliability(&hooks);
    ctl.attach_command_log(&log);
  }
  Controller ctl;
  ScheduledMaintenance hooks;
  CommandLog log;
};

std::vector<std::uint8_t> snapshot(const Controller& ctl) {
  SnapshotWriter w;
  ctl.save(w);
  return w.seal();
}

TEST(MaskUpkeep, IncrementalMasksMatchRebuildFromQueue) {
  constexpr std::uint64_t kWindow = 400;  // cycles between restores
  constexpr int kWindows = 12;
  const SchedulerKind kinds[] = {SchedulerKind::kFcfs,
                                 SchedulerKind::kFcfsPerBank,
                                 SchedulerKind::kFrFcfs,
                                 SchedulerKind::kReadFirst,
                                 SchedulerKind::kTdm};
  const PagePolicy pages[] = {PagePolicy::kOpen, PagePolicy::kClosed,
                              PagePolicy::kTimeout};
  unsigned config = 0;
  std::uint64_t commands = 0, columns = 0, precharges = 0, refreshes = 0;
  std::uint64_t maintenance = 0, powerdown = 0, escalations = 0;
  std::uint64_t full_windows = 0, deep_queues = 0;
  for (const unsigned depth : {4u, 63u, 64u, 65u, 128u}) {
    for (const unsigned banks : {1u, 4u, 64u}) {
      for (const SchedulerKind kind : kinds) {
        for (const PagePolicy page : pages) {
          const auto mode = static_cast<Mode>(config++ % 3);
          DramConfig cfg = presets::sdram_pc100_4mbit();
          cfg.banks = banks;
          cfg.rows_per_bank = 64;
          cfg.queue_depth = depth;
          cfg.scheduler = kind;
          cfg.page_policy = page;
          cfg.page_timeout_cycles = 24;
          cfg.tdm_slot_cycles = 16;
          cfg.tdm_clients = 3;
          cfg.powerdown_enabled = mode != Mode::kRefresh;
          cfg.powerdown_idle_cycles = 16;
          cfg.watchdog_enabled = mode != Mode::kPowerDown;
          cfg.watchdog_cycles = 150;
          cfg.watchdog_retries = 1'000'000;
          cfg.validate();
          const std::string label =
              "depth " + std::to_string(depth) + " banks " +
              std::to_string(banks) + " policy " +
              std::to_string(static_cast<int>(kind)) + " page " +
              std::to_string(static_cast<int>(page)) + " mode " +
              std::to_string(static_cast<int>(mode));
          SCOPED_TRACE(label);

          auto a = std::make_unique<Rig>(cfg, mode);
          Rng rng(config * 7'919ull + depth);
          const std::uint64_t span = cfg.capacity().byte_count();
          const unsigned burst = cfg.bytes_per_access();
          std::uint64_t cursor = 0;
          std::vector<Request> done_a, done_b;
          for (int window = 0; window < kWindows; ++window) {
            // The copy restored from a's state: its masks are rebuilt
            // from the queue by load().
            const std::vector<std::uint8_t> blob = snapshot(a->ctl);
            auto b = std::make_unique<Rig>(cfg, mode);
            SnapshotReader r(blob);
            b->ctl.load(r);
            r.expect_end();
            a->log.clear();
            const std::uint64_t end = a->ctl.cycle() + kWindow;
            if (window % 4 == 3) {
              // A quiet window: the event bound skips, rows time out and
              // the device powers down.
              a->ctl.tick_until(end);
              b->ctl.tick_until(end);
            } else {
              const double p_arrive = 0.3 + 0.7 * rng.next_double();
              bool filled = false;
              while (a->ctl.cycle() < end) {
                if (rng.next_bool(p_arrive)) {
                  Request q;
                  q.type = rng.next_bool(0.4) ? AccessType::kWrite
                                              : AccessType::kRead;
                  q.client_id = static_cast<unsigned>(rng.next_below(5));
                  if (rng.next_bool(0.5)) {
                    cursor = (cursor + burst) % span;  // a row-local stream
                    q.addr = cursor;
                  } else {
                    q.addr = rng.next_below(span / burst) * burst;
                  }
                  ASSERT_EQ(a->ctl.enqueue(q), b->ctl.enqueue(q));
                }
                filled |= a->ctl.queue_full();
                a->ctl.tick();
                b->ctl.tick();
                a->ctl.drain_completed_into(done_a);
                b->ctl.drain_completed_into(done_b);
                ASSERT_EQ(done_a.size(), done_b.size())
                    << "cycle " << a->ctl.cycle();
                for (std::size_t i = 0; i < done_a.size(); ++i) {
                  ASSERT_EQ(done_a[i].id, done_b[i].id);
                  ASSERT_EQ(done_a[i].done_cycle, done_b[i].done_cycle);
                }
              }
              full_windows += filled ? 1u : 0u;
            }
            deep_queues += a->ctl.queue_size() > 64 ? 1u : 0u;
            ASSERT_EQ(a->log.records(), b->log.records()) << "window "
                                                          << window;
            ASSERT_EQ(snapshot(a->ctl), snapshot(b->ctl)) << "window "
                                                          << window;
            for (const CommandRecord& rec : a->log.records()) {
              ++commands;
              const Command c = rec.cmd;
              columns += c == Command::kRead || c == Command::kWrite ? 1 : 0;
              precharges += c == Command::kPrecharge ? 1 : 0;
              refreshes += c == Command::kRefresh ? 1 : 0;
              maintenance += c == Command::kMaintStart ? 1 : 0;
            }
          }
          const ControllerStats& st = a->ctl.stats();
          powerdown += st.powerdown_cycles;
          escalations += st.watchdog_retries;
          ASSERT_GT(st.reads + st.writes, 0u);
        }
      }
    }
  }
  // Every upkeep path ran, and often: the squeeze (columns), the row-close
  // helper at its sites, refresh, maintenance, power-down, escalation,
  // full queues and queues past the first mask word.
  EXPECT_GT(columns, 100'000u);
  EXPECT_GT(precharges, 10'000u);
  EXPECT_GT(refreshes, 100u);
  EXPECT_GT(maintenance, 100u);
  EXPECT_GT(powerdown, 10'000u);
  EXPECT_GT(escalations, 100u);
  EXPECT_GT(full_windows, 200u);
  EXPECT_GT(deep_queues, 20u);
  EXPECT_GT(commands, columns);
}

}  // namespace
}  // namespace edsim::dram
