// Snapshot/restore suite: deterministic round trips for every serialized
// layer (memory system, multi-channel, reliability manager incl. the
// maintenance engine), canonical-bytes checks, and the corruption fuzz —
// every single-byte flip and every truncation of a sealed snapshot must
// yield a structured Error{kSnapshotFormat}, never undefined behaviour
// (the same discipline as the .edtrc trace-format corruption fuzz).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "clients/compiled_trace.hpp"
#include "clients/extra_clients.hpp"
#include "clients/system.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "dram/bank.hpp"
#include "dram/refresh.hpp"
#include "reliability/fault_injector.hpp"
#include "reliability/maintenance.hpp"
#include "reliability/manager.hpp"

namespace edsim {
namespace {

dram::DramConfig small_config() {
  dram::DramConfig cfg;
  cfg.banks = 4;
  cfg.rows_per_bank = 256;
  cfg.page_bytes = 1024;
  cfg.interface_bits = 32;
  cfg.queue_depth = 8;
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 16;
  cfg.ecc_enabled = true;
  return cfg;
}

/// Mixed roster covering every serialized client kind, including an
/// arena-replay client over a compiled stream.
void add_roster(clients::MemorySystem& sys, const dram::DramConfig& cfg) {
  const unsigned burst = cfg.bytes_per_access();
  const std::uint64_t span = cfg.capacity().byte_count();
  {
    clients::StreamClient::Params p;
    p.length = span / 2;
    p.burst_bytes = burst;
    p.period_cycles = 90;
    sys.add_client(std::make_unique<clients::StreamClient>(0, "stream", p));
  }
  {
    clients::RandomClient::Params p;
    p.length = span / 2;
    p.burst_bytes = burst;
    p.period_cycles = 130;
    p.seed = 42;
    sys.add_client(std::make_unique<clients::RandomClient>(1, "rand", p));
  }
  {
    clients::StridedClient::Params p;
    p.length = span / 2;
    p.burst_bytes = burst;
    p.stride_bytes = cfg.page_bytes;
    p.period_cycles = 170;
    sys.add_client(std::make_unique<clients::StridedClient>(2, "strided", p));
  }
  {
    clients::PointerChaseClient::Params p;
    p.length = span / 2;
    p.burst_bytes = burst;
    p.think_cycles = 40;
    sys.add_client(
        std::make_unique<clients::PointerChaseClient>(3, "chase", p));
  }
  {
    clients::BurstyClient::Params p;
    p.length = span / 2;
    p.burst_bytes = burst;
    p.on_requests = 6;
    p.off_cycles = 400;
    sys.add_client(std::make_unique<clients::BurstyClient>(4, "bursty", p));
  }
  {
    clients::StreamClient::Params p;
    p.base = span / 2;
    p.length = span / 4;
    p.burst_bytes = burst;
    p.period_cycles = 110;
    auto arena = clients::compile_stream(p, 2'000);
    sys.add_client(std::make_unique<clients::ArenaReplayClient>(
        5, "arena", std::move(arena)));
  }
}

std::unique_ptr<clients::MemorySystem> build_system(
    const dram::DramConfig& cfg) {
  auto sys = std::make_unique<clients::MemorySystem>(
      cfg, clients::ArbiterKind::kRoundRobin);
  add_roster(*sys, cfg);
  return sys;
}

reliability::ReliabilityConfig reliability_recipe() {
  reliability::ReliabilityConfig rc;
  rc.inject.seed = 7;
  rc.inject.transient_per_mbit_ms = 40.0;
  rc.inject.weak_cells = 8;
  rc.inject.hammer_flip_threshold = 96;
  rc.maintenance.enabled = true;
  rc.maintenance.bins = 3;
  rc.maintenance.base_window_cycles = 4'000;
  rc.maintenance.rows_per_op = 4;
  rc.maintenance.hammer_threshold = 24;
  rc.maintenance.hammer_table_rows = 4;
  rc.hammer_remap_after_flips = 2;
  return rc;
}

// ---------------------------------------------------------------------------
// Round trips.

TEST(Snapshot, MemorySystemRoundTripBitIdentical) {
  const dram::DramConfig cfg = small_config();
  auto straight = build_system(cfg);
  straight->run(7'000);
  const std::vector<std::uint8_t> blob = straight->save_snapshot();
  straight->run(7'000);

  auto resumed = build_system(cfg);
  resumed->restore_snapshot(blob);
  resumed->run(7'000);

  EXPECT_EQ(straight->controller().cycle(), resumed->controller().cycle());
  // Equal final states serialize to equal bytes — covers every counter,
  // accumulator, queue entry and client register in one comparison.
  EXPECT_EQ(straight->save_snapshot(), resumed->save_snapshot());
}

// Every scheduler policy mid-run: whatever per-policy state the scheduler
// keeps (write-drain bursts, TDM has none — rotation derives from the
// cycle) must survive a save/restore cut bit-identically.
TEST(Snapshot, EverySchedulerPolicyRoundTripsBitIdentical) {
  for (const auto sched :
       {dram::SchedulerKind::kFcfs, dram::SchedulerKind::kFcfsPerBank,
        dram::SchedulerKind::kFrFcfs, dram::SchedulerKind::kReadFirst,
        dram::SchedulerKind::kTdm}) {
    SCOPED_TRACE(dram::to_string(sched));
    dram::DramConfig cfg = small_config();
    cfg.scheduler = sched;
    cfg.tdm_slot_cycles = 32;
    cfg.tdm_clients = 6;  // roster has six clients: one slot each

    auto straight = build_system(cfg);
    straight->run(7'000);
    const std::vector<std::uint8_t> blob = straight->save_snapshot();
    straight->run(7'000);

    auto resumed = build_system(cfg);
    resumed->restore_snapshot(blob);
    resumed->run(7'000);

    EXPECT_EQ(straight->save_snapshot(), resumed->save_snapshot());
  }
}

TEST(Snapshot, RestoreIsIdempotentOnTheSameBytes) {
  const dram::DramConfig cfg = small_config();
  auto sys = build_system(cfg);
  sys->run(5'000);
  const std::vector<std::uint8_t> blob = sys->save_snapshot();

  auto other = build_system(cfg);
  other->restore_snapshot(blob);
  EXPECT_EQ(other->save_snapshot(), blob);
  other->restore_snapshot(blob);  // restoring twice is harmless
  EXPECT_EQ(other->save_snapshot(), blob);
}

TEST(Snapshot, ReliabilityManagerRoundTripWithMaintenance) {
  const dram::DramConfig cfg = small_config();
  const auto build = [&] {
    auto sys = build_system(cfg);
    auto rel = std::make_unique<reliability::ReliabilityManager>(
        cfg, reliability_recipe());
    sys->controller().attach_reliability(rel.get());
    return std::pair{std::move(sys), std::move(rel)};
  };

  auto [sys_a, rel_a] = build();
  sys_a->run(9'000);
  SnapshotWriter w;
  rel_a->save(w);
  sys_a->save(w);
  const std::vector<std::uint8_t> blob = w.seal();
  sys_a->run(9'000);

  auto [sys_b, rel_b] = build();
  SnapshotReader r(blob);
  rel_b->load(r);
  sys_b->controller().attach_reliability(rel_b.get());
  sys_b->load(r);
  r.expect_end();
  sys_b->run(9'000);

  EXPECT_EQ(rel_a->event_log(), rel_b->event_log());
  EXPECT_EQ(rel_a->live_faults(), rel_b->live_faults());
  EXPECT_EQ(rel_a->max_disturbance(), rel_b->max_disturbance());
  EXPECT_EQ(rel_a->counters().injected, rel_b->counters().injected);
  EXPECT_EQ(rel_a->counters().corrected, rel_b->counters().corrected);
  SnapshotWriter wa;
  SnapshotWriter wb;
  rel_a->save(wa);
  rel_b->save(wb);
  EXPECT_EQ(wa.payload(), wb.payload());
}

TEST(Snapshot, AccumulatorPreservesUnflushedRun) {
  Accumulator a;
  a.add_repeated(3.5, 1'000);
  a.add(2.0);
  a.add_repeated(2.0, 7);  // leave a pending run unflushed
  SnapshotWriter w;
  a.save(w);
  Accumulator b;
  const std::vector<std::uint8_t> blob = w.seal();
  SnapshotReader rs(blob);
  b.load(rs);
  rs.expect_end();
  // Continue both with the same folds; derived statistics stay bit-equal.
  a.add_repeated(2.0, 5);
  b.add_repeated(2.0, 5);
  a.add(9.0);
  b.add(9.0);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.sum(), b.sum());
}

TEST(Snapshot, RngStreamResumes) {
  Rng a(123);
  for (int i = 0; i < 57; ++i) a.next_u64();
  SnapshotWriter w;
  a.save(w);
  const std::vector<std::uint8_t> blob = w.seal();
  Rng b(999);  // different seed: load must fully overwrite
  SnapshotReader r(blob);
  b.load(r);
  r.expect_end();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ---------------------------------------------------------------------------
// Structural validation: mismatched recipes are rejected, not mangled.

TEST(Snapshot, ClientCountMismatchRejected) {
  const dram::DramConfig cfg = small_config();
  auto sys = build_system(cfg);
  sys->run(1'000);
  const std::vector<std::uint8_t> blob = sys->save_snapshot();

  clients::MemorySystem other(cfg, clients::ArbiterKind::kRoundRobin);
  try {
    other.restore_snapshot(blob);
    FAIL() << "restore into a different roster must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSnapshotFormat);
  }
}

TEST(Snapshot, ArenaContentHashMismatchRejected) {
  const dram::DramConfig cfg = small_config();
  clients::StreamClient::Params p;
  p.length = 1 << 16;
  p.burst_bytes = cfg.bytes_per_access();
  p.period_cycles = 50;
  auto arena_a = clients::compile_stream(p, 500);
  p.period_cycles = 60;  // different workload, different content hash
  auto arena_b = clients::compile_stream(p, 500);

  clients::ArenaReplayClient a(0, "a", arena_a);
  SnapshotWriter w;
  a.save_state(w);
  const std::vector<std::uint8_t> blob = w.seal();

  clients::ArenaReplayClient b(0, "b", arena_b);
  SnapshotReader r(blob);
  try {
    b.load_state(r);
    FAIL() << "restore over a different arena must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSnapshotFormat);
  }
}

TEST(Snapshot, BankCountMismatchRejected) {
  dram::DramConfig cfg = small_config();
  auto sys = build_system(cfg);
  sys->run(1'000);
  const std::vector<std::uint8_t> blob = sys->save_snapshot();

  cfg.banks = 8;
  auto other = build_system(cfg);
  try {
    other->restore_snapshot(blob);
    FAIL() << "restore into a different geometry must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSnapshotFormat);
  }
}

// ---------------------------------------------------------------------------
// Corruption fuzz: the envelope checksum plus bounds-checked decode must
// turn EVERY truncation and EVERY byte flip into Error{kSnapshotFormat}.

std::vector<std::uint8_t> corpus_blob() {
  dram::DramConfig cfg = small_config();
  cfg.rows_per_bank = 128;  // keep the blob small: the fuzz is O(size^2)
  auto sys = build_system(cfg);
  auto rel = std::make_unique<reliability::ReliabilityManager>(
      cfg, reliability_recipe());
  sys->controller().attach_reliability(rel.get());
  sys->run(3'000);
  SnapshotWriter w;
  rel->save(w);
  sys->save(w);
  return w.seal();
}

TEST(SnapshotCorruption, EveryTruncationRejected) {
  const std::vector<std::uint8_t> blob = corpus_blob();
  ASSERT_GT(blob.size(), 16u);
  for (std::size_t n = 0; n < blob.size(); ++n) {
    try {
      SnapshotReader r(blob.data(), n);
      // Construction may legitimately succeed only for n == blob.size().
      FAIL() << "truncation to " << n << " bytes accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kSnapshotFormat)
          << "truncation to " << n << " bytes";
    }
  }
}

TEST(SnapshotCorruption, EveryByteFlipRejected) {
  const std::vector<std::uint8_t> blob = corpus_blob();
  std::vector<std::uint8_t> mutant = blob;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0xff}}) {
      mutant[i] = blob[i] ^ mask;
      try {
        SnapshotReader r(mutant);
        FAIL() << "flip at byte " << i << " (mask " << int{mask}
               << ") accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kSnapshotFormat)
            << "flip at byte " << i;
      }
    }
    mutant[i] = blob[i];
  }
}

TEST(SnapshotCorruption, VersionMismatchRejected) {
  SnapshotWriter w;
  w.u64(1234);
  // Every earlier layout (version 1 stored no MC-client state) and a
  // future one; the version byte sits after the 4-byte magic and is not
  // covered by the payload checksum.
  for (std::uint8_t version = 1; version <= kSnapshotVersion + 1; ++version) {
    if (version == kSnapshotVersion) continue;
    std::vector<std::uint8_t> blob = w.seal();
    blob[4] = version;
    try {
      SnapshotReader r(blob);
      FAIL() << "version-" << int{version} << " snapshot accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kSnapshotFormat) << int{version};
    }
  }
}

// A sealed blob (valid checksum) whose element count claims 2^60 records
// must fail as a format error before any reserve() sees the count.
constexpr std::uint64_t kForgedCount = std::uint64_t{1} << 60;

template <typename Load>
void expect_forged_count_rejected(const SnapshotWriter& w, Load load) {
  const std::vector<std::uint8_t> blob = w.seal();
  SnapshotReader r(blob);
  try {
    load(r);
    FAIL() << "forged element count accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSnapshotFormat);
  }
}

TEST(SnapshotCorruption, SampleSetForgedCountRejected) {
  SnapshotWriter w;
  w.u64(kForgedCount);
  w.f64(1.0);
  w.boolean(false);
  SampleSet s;
  expect_forged_count_rejected(w, [&](SnapshotReader& r) { s.load(r); });
}

/// Controller::save's fields ahead of its queue: a fresh controller's
/// banks, auto-precharge flags, column cycles, scheduler and refresh state.
SnapshotWriter fresh_controller_prefix(const dram::DramConfig& cfg) {
  SnapshotWriter w;
  w.u32(cfg.banks);
  for (unsigned b = 0; b < cfg.banks; ++b) dram::Bank(cfg.timing).save(w);
  for (unsigned b = 0; b < cfg.banks; ++b) w.boolean(false);
  for (unsigned b = 0; b < cfg.banks; ++b) w.u64(0);
  if (cfg.scheduler == dram::SchedulerKind::kReadFirst) {
    w.boolean(false);  // ReadFirst's write-drain flag
  }
  dram::RefreshEngine(cfg.timing, cfg.refresh_enabled, cfg.refresh_burst)
      .save(w);
  // Guard against layout drift: the hand-built prefix must match what a
  // fresh controller actually writes.
  dram::Controller fresh(cfg);
  SnapshotWriter full;
  fresh.save(full);
  const auto& pre = w.payload();
  EXPECT_TRUE(full.payload().size() > pre.size() &&
              std::equal(pre.begin(), pre.end(), full.payload().begin()))
      << "controller snapshot layout changed; update this prefix";
  return w;
}

TEST(SnapshotCorruption, ControllerForgedInflightCountRejected) {
  const dram::DramConfig cfg = small_config();
  SnapshotWriter w = fresh_controller_prefix(cfg);
  w.u64(0);             // queued
  w.u64(kForgedCount);  // in flight
  w.u64(0);
  dram::Controller ctl(cfg);
  expect_forged_count_rejected(w, [&](SnapshotReader& r) { ctl.load(r); });
}

TEST(SnapshotCorruption, ControllerForgedCompletedCountRejected) {
  const dram::DramConfig cfg = small_config();
  SnapshotWriter w = fresh_controller_prefix(cfg);
  w.u64(0);             // queued
  w.u64(0);             // in flight
  w.u64(kForgedCount);  // completed
  w.u64(0);
  dram::Controller ctl(cfg);
  expect_forged_count_rejected(w, [&](SnapshotReader& r) { ctl.load(r); });
}

TEST(SnapshotCorruption, ReliabilityForgedBadBitCountRejected) {
  // The manager's stream opens with its counters and the faulty-row table;
  // forge one row claiming 2^60 bad bits.
  SnapshotWriter w;
  dram::ReliabilityCounters{}.save(w);
  w.u64(1);             // faulty rows
  w.u64(0);             // row key
  w.u64(kForgedCount);  // bad bits
  reliability::ReliabilityManager rel(small_config(), {});
  expect_forged_count_rejected(w, [&](SnapshotReader& r) { rel.load(r); });
}

TEST(SnapshotCorruption, ReliabilityForgedEventCountRejected) {
  // A fresh manager's stream ends with an empty event log (count 0), the
  // overflow flag (false) and the injector's state: splice a forged event
  // count over the first of those.
  const dram::DramConfig cfg = small_config();
  reliability::ReliabilityManager fresh(cfg, {});
  SnapshotWriter full;
  fresh.save(full);
  SnapshotWriter inj;
  fresh.injector().save(inj);
  const auto& p = full.payload();
  const std::size_t tail = inj.payload().size() + 2;
  ASSERT_GT(p.size(), tail);
  const std::size_t cut = p.size() - tail;
  ASSERT_TRUE(p[cut] == 0 && p[cut + 1] == 0 &&
              std::equal(inj.payload().begin(), inj.payload().end(),
                         p.begin() + static_cast<std::ptrdiff_t>(cut + 2)))
      << "reliability snapshot layout changed; update this splice";
  SnapshotWriter w;
  w.bytes(p.data(), cut);
  w.u64(kForgedCount);  // events
  w.boolean(false);
  w.bytes(inj.payload().data(), inj.payload().size());
  reliability::ReliabilityManager rel(cfg, {});
  expect_forged_count_rejected(w, [&](SnapshotReader& r) { rel.load(r); });
}

TEST(SnapshotCorruption, FaultInjectorForgedWeakCellCountRejected) {
  // With no weak cells configured the injector's stream ends with an
  // empty weak-row table (count 0): replace it by one row claiming 2^60
  // weak cells.
  const dram::DramConfig cfg = small_config();
  const reliability::FaultInjector fresh(cfg, {});
  SnapshotWriter full;
  fresh.save(full);
  const auto& p = full.payload();
  ASSERT_EQ(p.back(), 0u) << "injector snapshot layout changed";
  SnapshotWriter w;
  w.bytes(p.data(), p.size() - 1);
  w.u64(1);             // weak rows
  w.u64(0);             // row key
  w.u64(kForgedCount);  // weak cells
  reliability::FaultInjector inj(cfg, {});
  expect_forged_count_rejected(w, [&](SnapshotReader& r) { inj.load(r); });
}

/// A MaintenanceEngine stream decoded field by field (every field is a
/// varint): the row-bin table, the per-(bank, bin) sweep states, and the
/// rest (trackers, epochs, neighbor queues, then one dropped flag per bank).
struct EngineImage {
  struct Bin {
    std::vector<std::uint64_t> rows;
    std::uint64_t ptr = 0;
    std::uint64_t next_due = 0;
    std::uint64_t period = 0;
  };
  std::vector<std::uint64_t> row_bins;
  std::vector<Bin> bins;
  std::vector<std::uint64_t> tail;

  explicit EngineImage(const reliability::MaintenanceEngine& e) {
    SnapshotWriter w;
    e.save(w);
    const std::vector<std::uint8_t> blob = w.seal();
    SnapshotReader r(blob);
    row_bins.resize(r.u64());
    for (std::uint64_t& b : row_bins) b = r.u64();
    bins.resize(r.u64());
    for (Bin& b : bins) {
      b.rows.resize(r.u64());
      for (std::uint64_t& row : b.rows) row = r.u64();
      b.ptr = r.u64();
      b.next_due = r.u64();
      b.period = r.u64();
    }
    while (!r.at_end()) tail.push_back(r.u64());
    // Guard against layout drift: re-encoding must give the same bytes.
    EXPECT_EQ(write().payload(), w.payload())
        << "maintenance snapshot layout changed; update EngineImage";
  }

  SnapshotWriter write() const {
    SnapshotWriter w;
    w.u64(row_bins.size());
    for (const std::uint64_t b : row_bins) w.u64(b);
    w.u64(bins.size());
    for (const Bin& b : bins) {
      w.u64(b.rows.size());
      for (const std::uint64_t row : b.rows) w.u64(row);
      w.u64(b.ptr);
      w.u64(b.next_due);
      w.u64(b.period);
    }
    for (const std::uint64_t v : tail) w.u64(v);
    return w;
  }
};

/// Three retention bins on small_config() with no weak cells: every row
/// sits in the top bin, so bins 0 and 1 of each bank are empty and never
/// due while the top bin is scheduled.
struct EngineFixture {
  dram::DramConfig cfg = small_config();
  reliability::FaultInjector injector{cfg, {}};
  reliability::MaintenanceConfig mc = [] {
    reliability::MaintenanceConfig c;
    c.enabled = true;
    c.bins = 3;
    c.base_window_cycles = 4'000;
    return c;
  }();
  reliability::MaintenanceEngine engine{cfg, mc, injector};
  EngineImage image{engine};

  EngineImage::Bin& bin(unsigned bank, unsigned b) {
    return image.bins[bank * mc.bins + b];
  }
  std::uint64_t& dropped_flag(unsigned bank) {
    return image.tail[image.tail.size() - cfg.banks + bank];
  }
  /// Load the (edited) image into a fresh engine.
  void load() const {
    const std::vector<std::uint8_t> blob = image.write().seal();
    SnapshotReader r(blob);
    reliability::MaintenanceEngine fresh(cfg, mc, injector);
    fresh.load(r);
    r.expect_end();
  }
};

void expect_format_error(const EngineFixture& f) {
  try {
    f.load();
    FAIL() << "corrupt maintenance schedule accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSnapshotFormat);
  }
}

TEST(SnapshotCorruption, MaintenanceImageRoundTrips) {
  EngineFixture f;
  ASSERT_EQ(f.image.bins.size(), f.cfg.banks * f.mc.bins);
  ASSERT_TRUE(f.bin(0, 0).rows.empty());
  ASSERT_EQ(f.bin(0, 0).next_due, dram::kNeverCycle);
  ASSERT_EQ(f.bin(0, 2).rows.size(), f.cfg.rows_per_bank);
  ASSERT_NE(f.bin(0, 2).next_due, dram::kNeverCycle);
  EXPECT_NO_THROW(f.load());
}

TEST(SnapshotCorruption, MaintenanceDueBinWithoutRowsRejected) {
  EngineFixture f;
  f.bin(0, 0).next_due = 5;
  f.bin(0, 0).period = 10;
  expect_format_error(f);
}

TEST(SnapshotCorruption, MaintenanceDueBinWithZeroPeriodRejected) {
  // claim() would add 0: the bin stays due forever and takes every slot.
  EngineFixture f;
  f.bin(1, 2).period = 0;
  expect_format_error(f);
}

TEST(SnapshotCorruption, MaintenanceDueBinOnDroppedBankRejected) {
  EngineFixture f;
  ASSERT_EQ(f.dropped_flag(3), 0u);
  f.dropped_flag(3) = 1;
  expect_format_error(f);
}

TEST(SnapshotCorruption, MaintenanceDueCycleOverflowingSlackRejected) {
  // next_due + slack would wrap to a small cycle: instantly urgent.
  EngineFixture f;
  f.bin(2, 2).next_due = dram::kNeverCycle - 1;
  expect_format_error(f);
}

TEST(SnapshotCorruption, ReliabilityRetiredBankStillScheduledRejected) {
  // Retiring a bank drops it from the maintenance engine; a snapshot whose
  // engine still schedules a retired bank would leak it into the masks.
  const dram::DramConfig cfg = small_config();
  reliability::ReliabilityConfig rc;
  rc.spare_rows_per_bank = 0;  // first uncorrectable error retires
  rc.maintenance.enabled = true;
  rc.maintenance.base_window_cycles = 4'000;
  reliability::ReliabilityManager mgr(cfg, rc);
  mgr.inject_fault(1, 1, 0, 1);
  mgr.inject_fault(1, 1, 1, 1);
  mgr.on_access(dram::Coordinates{1, 1, 0}, dram::AccessType::kRead, 2);
  ASSERT_TRUE(mgr.bank_retired(1));
  const reliability::MaintenanceEngine& engine = *mgr.maintenance_engine();
  ASSERT_TRUE(engine.dropped(1));

  SnapshotWriter full;
  mgr.save(full);
  SnapshotWriter engine_bytes;
  engine.save(engine_bytes);
  const auto& p = full.payload();
  const auto& e = engine_bytes.payload();
  const auto at = std::search(p.begin(), p.end(), e.begin(), e.end());
  ASSERT_NE(at, p.end());
  ASSERT_EQ(std::search(at + 1, p.end(), e.begin(), e.end()), p.end())
      << "engine bytes not unique in the manager snapshot";

  // Splice the engine stream, with or without bank 1's dropped flag.
  const auto splice = [&](bool keep_dropped) {
    EngineImage image(engine);
    image.tail[image.tail.size() - cfg.banks + 1] = keep_dropped ? 1 : 0;
    const SnapshotWriter forged = image.write();
    SnapshotWriter w;
    const auto head = static_cast<std::size_t>(at - p.begin());
    w.bytes(p.data(), head);
    w.bytes(forged.payload().data(), forged.payload().size());
    w.bytes(p.data() + head + e.size(), p.size() - head - e.size());
    return w.seal();
  };
  {
    const std::vector<std::uint8_t> blob = splice(true);
    SnapshotReader r(blob);
    reliability::ReliabilityManager rel(cfg, rc);
    EXPECT_NO_THROW(rel.load(r));
  }
  const std::vector<std::uint8_t> blob = splice(false);
  SnapshotReader r(blob);
  reliability::ReliabilityManager rel(cfg, rc);
  try {
    rel.load(r);
    FAIL() << "retired bank with a live maintenance schedule accepted";
  } catch (const Error& err) {
    EXPECT_EQ(err.kind(), ErrorKind::kSnapshotFormat);
  }
}

TEST(SnapshotCorruption, GarbagePayloadNeverUb) {
  // Decoding random bytes through a *valid* envelope must fail with a
  // structured error at the field layer (out-of-range counts, key guards)
  // — the checksum only protects transport, not semantics.
  const dram::DramConfig cfg = small_config();
  Rng rng(31337);
  auto scratch = build_system(cfg);
  for (int round = 0; round < 200; ++round) {
    SnapshotWriter w;
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(64));
    for (unsigned i = 0; i < n; ++i) w.u64(rng.next_u64());
    const std::vector<std::uint8_t> blob = w.seal();
    try {
      scratch->restore_snapshot(blob);
      // Vanishingly unlikely, but not UB — a fresh system absorbs it.
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kSnapshotFormat) << "round " << round;
    }
    // The scratch system may now hold arbitrary (but structurally valid)
    // state; rebuild it for the next round.
    scratch = build_system(cfg);
  }
}

}  // namespace
}  // namespace edsim
