// Exploration-service tests: the persistent content-addressed result
// store (EDRS append log — round trips, reopen replay, idempotent puts,
// failed-append rollback, torn-tail crash recovery, every-truncation and
// every-byte-flip corruption fuzz), the Metrics wire codec, and the store
// tier inside the Evaluator (a fresh evaluator warm-starts from the file
// bit-exactly). Carries the `service` ctest label; scripts/sanitize.sh
// replays the corruption fuzz under ASan/UBSan.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/snapshot.hpp"
#include "common/varint.hpp"
#include "core/evaluator.hpp"
#include "service/result_store.hpp"
#include "service/wire.hpp"

namespace edsim {
namespace {

namespace fs = std::filesystem;

std::string temp_store_path(const std::string& stem) {
  return (fs::temp_directory_path() / (stem + ".edrs")).string();
}

/// A recognizable, fully populated metrics vector (distinct per `i`).
core::Metrics sample_metrics(int i) {
  core::Metrics m;
  m.name = "point-" + std::to_string(i);
  m.die_area_mm2 = 30.0 + i;
  m.memory_area_mm2 = 10.5 + i;
  m.logic_area_mm2 = 7.25 * (i + 1);
  m.sustained_gbyte_s = 1.0 + 0.125 * i;
  m.peak_gbyte_s = 3.2 + i;
  m.bandwidth_efficiency = 0.5 + 0.01 * i;
  m.avg_read_latency_ns = 42.0 + i;
  m.worst_read_latency_ns = 180.0 + i;
  m.wcet_read_latency_ns = 250.0 + i;
  m.wcet_bandwidth_gbyte_s = 2.5 + 0.1 * i;
  m.io_power_mw = 100.0 + i;
  m.total_power_mw = 400.0 + i;
  m.installed_mbit = 16.0;
  m.waste_mbit = static_cast<double>(i);
  m.unit_cost_usd = 7.77 + 0.01 * i;
  m.logic_speed = 0.7;
  m.junction_c = 85.0 + i;
  m.retention_ms = 64.0;
  m.refresh_overhead = 0.015;
  m.sampled = i % 2 == 0;
  m.sample_windows = static_cast<unsigned>(i);
  m.sustained_gbyte_s_ci = 0.001 * i;
  m.avg_read_latency_ns_ci = 0.002 * i;
  return m;
}

void expect_metrics_exact(const core::Metrics& a, const core::Metrics& b) {
  // EXPECT_EQ on doubles on purpose: the store contract is identical bits.
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.die_area_mm2, b.die_area_mm2);
  EXPECT_EQ(a.memory_area_mm2, b.memory_area_mm2);
  EXPECT_EQ(a.logic_area_mm2, b.logic_area_mm2);
  EXPECT_EQ(a.sustained_gbyte_s, b.sustained_gbyte_s);
  EXPECT_EQ(a.peak_gbyte_s, b.peak_gbyte_s);
  EXPECT_EQ(a.bandwidth_efficiency, b.bandwidth_efficiency);
  EXPECT_EQ(a.avg_read_latency_ns, b.avg_read_latency_ns);
  EXPECT_EQ(a.worst_read_latency_ns, b.worst_read_latency_ns);
  EXPECT_EQ(a.wcet_read_latency_ns, b.wcet_read_latency_ns);
  EXPECT_EQ(a.wcet_bandwidth_gbyte_s, b.wcet_bandwidth_gbyte_s);
  EXPECT_EQ(a.io_power_mw, b.io_power_mw);
  EXPECT_EQ(a.total_power_mw, b.total_power_mw);
  EXPECT_EQ(a.installed_mbit, b.installed_mbit);
  EXPECT_EQ(a.waste_mbit, b.waste_mbit);
  EXPECT_EQ(a.unit_cost_usd, b.unit_cost_usd);
  EXPECT_EQ(a.logic_speed, b.logic_speed);
  EXPECT_EQ(a.junction_c, b.junction_c);
  EXPECT_EQ(a.retention_ms, b.retention_ms);
  EXPECT_EQ(a.refresh_overhead, b.refresh_overhead);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.sample_windows, b.sample_windows);
  EXPECT_EQ(a.sustained_gbyte_s_ci, b.sustained_gbyte_s_ci);
  EXPECT_EQ(a.avg_read_latency_ns_ci, b.avg_read_latency_ns_ci);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Small deterministic candidate list for the evaluator tests.
std::vector<core::SystemConfig> small_design_space() {
  std::vector<core::SystemConfig> cfgs;
  for (const unsigned width : {64u, 128u}) {
    for (const core::BaseProcess p :
         {core::BaseProcess::kDramBased, core::BaseProcess::kMerged}) {
      core::SystemConfig c;
      c.name = "svc-" + std::to_string(width) + "-" +
               std::to_string(static_cast<int>(p));
      c.integration = core::Integration::kEmbedded;
      c.process = p;
      c.required_memory = Capacity::mbit(16);
      c.interface_bits = width;
      c.banks = 4;
      c.page_bytes = 2048;
      cfgs.push_back(c);
    }
  }
  core::SystemConfig d;
  d.name = "svc-discrete-32";
  d.integration = core::Integration::kDiscrete;
  d.required_memory = Capacity::mbit(16);
  d.interface_bits = 32;
  cfgs.push_back(d);
  return cfgs;
}

core::EvalWorkload small_workload() {
  core::EvalWorkload w;
  w.demand_gbyte_s = 1.5;
  w.stream_clients = 1;
  w.random_clients = 1;
  w.sim_cycles = 8'000;
  w.seed = 99;
  return w;
}

// ---------------------------------------------------------------------------
// Wire codec.

TEST(ServiceWire, MetricsRoundTripBitExact) {
  for (int i = 0; i < 4; ++i) {
    const core::Metrics in = sample_metrics(i);
    SnapshotWriter w;
    service::encode_metrics(w, in);
    const auto blob = w.seal();
    SnapshotReader r(blob);
    const core::Metrics out = service::decode_metrics(r);
    r.expect_end();
    expect_metrics_exact(in, out);
  }
}

// ---------------------------------------------------------------------------
// ResultStore: round trips, reopen, idempotence.

TEST(ResultStore, PutFindReopenBitExact) {
  const std::string path = temp_store_path("rs_roundtrip");
  fs::remove(path);
  constexpr int kN = 12;
  {
    service::ResultStore store(path);
    for (int i = 0; i < kN; ++i) {
      store.put(1000 + static_cast<std::uint64_t>(i), sample_metrics(i));
    }
    EXPECT_EQ(store.entries(), static_cast<std::size_t>(kN));
    core::Metrics m;
    ASSERT_TRUE(store.find(1005, &m));
    expect_metrics_exact(sample_metrics(5), m);
    EXPECT_FALSE(store.find(1, &m));
    const auto st = store.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_GT(st.bytes_written, 0u);
  }
  // Fresh object replays the log; every record comes back bit-exact.
  service::ResultStore again(path);
  EXPECT_EQ(again.entries(), static_cast<std::size_t>(kN));
  EXPECT_EQ(again.stats().recovered_tail_records, 0u);
  EXPECT_GT(again.stats().bytes_read, 0u);
  for (int i = 0; i < kN; ++i) {
    core::Metrics m;
    ASSERT_TRUE(again.find(1000 + static_cast<std::uint64_t>(i), &m)) << i;
    expect_metrics_exact(sample_metrics(i), m);
  }
  fs::remove(path);
}

TEST(ResultStore, PutIsIdempotent) {
  const std::string path = temp_store_path("rs_idempotent");
  fs::remove(path);
  service::ResultStore store(path);
  store.put(7, sample_metrics(0));
  const std::uint64_t once = store.stats().bytes_written;
  store.put(7, sample_metrics(0));
  store.put(7, sample_metrics(0));
  EXPECT_EQ(store.stats().bytes_written, once);
  EXPECT_EQ(store.entries(), 1u);
  fs::remove(path);
}

TEST(ResultStore, RejectsForeignAndVersionSkewedFiles) {
  const std::string path = temp_store_path("rs_foreign");
  write_file(path, {'N', 'O', 'P', 'E', 1});
  EXPECT_THROW(
      {
        try {
          service::ResultStore store(path);
        } catch (const Error& e) {
          EXPECT_EQ(e.kind(), ErrorKind::kStoreFormat);
          throw;
        }
      },
      Error);
  write_file(path, {'E', 'D', 'R', 'S', 99});
  EXPECT_THROW(service::ResultStore{path}, Error);
  // Too short to even hold the header.
  write_file(path, {'E', 'D'});
  EXPECT_THROW(service::ResultStore{path}, Error);
  fs::remove(path);
}

TEST(ResultStore, RefusesStoresOfThePreviousRecordFormat) {
  // A store written before the snapshot envelope moved to version 2: an
  // EDRS version-2 header over records sealed as snapshot version 1. It is
  // refused whole, with one record as with several — never mistaken for a
  // torn tail and truncated.
  const std::string path = temp_store_path("rs_previous_format");
  for (const int records : {1, 3}) {
    SCOPED_TRACE(std::to_string(records) + " records");
    fs::remove(path);
    {
      service::ResultStore store(path);
      for (int i = 0; i < records; ++i) {
        store.put(static_cast<std::uint64_t>(i), sample_metrics(i));
      }
    }
    std::vector<std::uint8_t> old = read_file(path);
    old[4] = 2;
    for (std::size_t off = 5; off < old.size();) {
      std::uint64_t len = 0;
      std::size_t cursor = off;
      ASSERT_TRUE(decode_varint(old.data(), old.size(), cursor, len));
      old[cursor + 4] = 1;  // the record blob's snapshot version byte
      off = cursor + static_cast<std::size_t>(len);
    }
    write_file(path, old);
    try {
      service::ResultStore store(path);
      FAIL() << "previous-format store accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kStoreFormat);
    }
    EXPECT_EQ(read_file(path), old) << "a refused store must stay untouched";
  }
  fs::remove(path);
}

TEST(ResultStore, FailedAppendLeavesStoreReopenable) {
  // An append that fails part-way (the file-size limit lets 10 bytes of
  // the record through) must leave no trace: the key stays absent, the
  // torn bytes are cut, a retried put persists, and a later put lands on
  // a record boundary, so the file still reopens with every record.
  const std::string path = temp_store_path("rs_failed_append");
  fs::remove(path);
  {
    service::ResultStore store(path);
    store.put(1, sample_metrics(1));
    const std::uintmax_t good = fs::file_size(path);

    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit tight = saved;
    tight.rlim_cur = static_cast<rlim_t>(good + 10);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tight), 0);
    // Ignored SIGXFSZ turns the over-limit write into an EFBIG error
    // instead of killing the process.
    struct sigaction ignore {};
    struct sigaction previous {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGXFSZ, &ignore, &previous);
    bool threw = false;
    try {
      store.put(2, sample_metrics(2));
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.kind(), ErrorKind::kStoreFormat);
    }
    ::setrlimit(RLIMIT_FSIZE, &saved);
    ::sigaction(SIGXFSZ, &previous, nullptr);
    EXPECT_TRUE(threw);

    core::Metrics m;
    EXPECT_FALSE(store.find(2, &m)) << "a failed put must not be served";
    EXPECT_EQ(store.entries(), 1u);
    EXPECT_EQ(fs::file_size(path), good) << "torn bytes left in the file";
    store.put(2, sample_metrics(2));
    EXPECT_GT(fs::file_size(path), good) << "retried put was a no-op";
    store.put(3, sample_metrics(3));
  }
  service::ResultStore again(path);
  EXPECT_EQ(again.entries(), 3u);
  EXPECT_EQ(again.stats().recovered_tail_records, 0u);
  for (int k = 1; k <= 3; ++k) {
    core::Metrics m;
    ASSERT_TRUE(again.find(static_cast<std::uint64_t>(k), &m)) << k;
    expect_metrics_exact(sample_metrics(k), m);
  }
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Crash-safety: torn tails and corruption fuzz.

TEST(ResultStore, EveryTruncationRecoversOrRejectsStructurally) {
  const std::string path = temp_store_path("rs_trunc");
  fs::remove(path);
  constexpr int kN = 5;
  {
    service::ResultStore store(path);
    for (int i = 0; i < kN; ++i) {
      store.put(static_cast<std::uint64_t>(i), sample_metrics(i));
    }
  }
  const std::vector<std::uint8_t> full = read_file(path);
  ASSERT_GT(full.size(), 5u);

  for (std::size_t cut = 5; cut < full.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    write_file(path, {full.begin(),
                      full.begin() + static_cast<std::ptrdiff_t>(cut)});
    // A truncated tail is exactly what a crash mid-append leaves: open
    // must always succeed, drop at most the torn record, and keep every
    // record before it bit-exact.
    service::ResultStore store(path);
    EXPECT_LE(store.entries(), static_cast<std::size_t>(kN));
    for (std::uint64_t k = 0; k < store.entries(); ++k) {
      core::Metrics m;
      ASSERT_TRUE(store.find(k, &m)) << "surviving prefix must stay intact";
      expect_metrics_exact(sample_metrics(static_cast<int>(k)), m);
    }
    if (cut < full.size()) {
      // Appending after recovery lands on a clean boundary.
      store.put(777, sample_metrics(9));
      core::Metrics m;
      EXPECT_TRUE(store.find(777, &m));
    }
  }
  // Truncations inside the header are rejected (no store to salvage).
  for (std::size_t cut = 1; cut < 5; ++cut) {
    write_file(path, {full.begin(),
                      full.begin() + static_cast<std::ptrdiff_t>(cut)});
    EXPECT_THROW(service::ResultStore{path}, Error) << "cut=" << cut;
  }
  fs::remove(path);
}

TEST(ResultStore, EveryByteFlipRecoversOrRejectsStructurally) {
  const std::string path = temp_store_path("rs_flip");
  fs::remove(path);
  constexpr int kN = 4;
  {
    service::ResultStore store(path);
    for (int i = 0; i < kN; ++i) {
      store.put(static_cast<std::uint64_t>(i), sample_metrics(i));
    }
  }
  const std::vector<std::uint8_t> full = read_file(path);

  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    SCOPED_TRACE("flip at " + std::to_string(pos));
    std::vector<std::uint8_t> bytes = full;
    bytes[pos] ^= 0x41;
    write_file(path, bytes);
    // Contract: open either succeeds — and then every record it serves
    // is one that was actually put, bit-exact — or raises a structured
    // kStoreFormat error. Never UB, never silently wrong metrics.
    try {
      service::ResultStore store(path);
      for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(kN); ++k) {
        core::Metrics m;
        if (store.find(k, &m)) {
          expect_metrics_exact(sample_metrics(static_cast<int>(k)), m);
        }
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kStoreFormat);
    }
  }
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Store tier inside the Evaluator.

TEST(ResultStore, EvaluatorWarmStartsAcrossProcessesBitExact) {
  const std::string path = temp_store_path("rs_evaluator");
  fs::remove(path);
  const auto cfgs = small_design_space();
  const core::EvalWorkload w = small_workload();

  // Store-less reference.
  core::Evaluator ref;
  ref.set_threads(1);
  const auto want = ref.sweep(cfgs, w);

  // Cold store-backed sweep populates the log.
  {
    core::Evaluator ev;
    ev.set_threads(1);
    ev.set_result_store(std::make_shared<service::ResultStore>(path));
    const auto got = ev.sweep(cfgs, w);
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_metrics_exact(want[i], got[i]);
    }
    const auto cs = ev.cache_stats();
    ASSERT_TRUE(cs.store_attached);
    EXPECT_EQ(cs.store.entries, cfgs.size());
    EXPECT_EQ(cs.store.hits, 0u);
  }

  // "Fresh process": new evaluator, reopened store — every point must be
  // a store hit (no simulation: no channel shape is entered).
  core::Evaluator warm;
  warm.set_threads(1);
  warm.set_result_store(std::make_shared<service::ResultStore>(path));
  const auto got = warm.sweep(cfgs, w);
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_metrics_exact(want[i], got[i]);
  }
  const auto cs = warm.cache_stats();
  EXPECT_EQ(cs.store.hits, cfgs.size());
  EXPECT_EQ(cs.store.misses, 0u);
  EXPECT_EQ(cs.shape_entries, 0u) << "store hits must not simulate channels";
  fs::remove(path);
}

TEST(ResultStore, SweepWritesTheSameBytesAtEveryThreadCount) {
  // Sweep threads finish in timing-dependent order, but new records reach
  // the store in input order, so a fresh store's bytes do not depend on
  // the thread count. The repeated point exercises two threads computing
  // one key: the later put is an idempotent no-op either way.
  std::vector<core::SystemConfig> cfgs = small_design_space();
  cfgs.push_back(cfgs.front());
  const core::EvalWorkload w = small_workload();
  const auto fresh_store_bytes = [&](unsigned threads, int run) {
    const std::string path = temp_store_path(
        "rs_threads_" + std::to_string(threads) + "_" + std::to_string(run));
    fs::remove(path);
    {
      core::Evaluator ev;
      ev.set_threads(threads);
      ev.set_result_store(std::make_shared<service::ResultStore>(path));
      ev.sweep(cfgs, w);
    }
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    fs::remove(path);
    return bytes;
  };
  const std::vector<char> want = fresh_store_bytes(1, 0);
  ASSERT_FALSE(want.empty());
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(fresh_store_bytes(4, run), want) << "run " << run;
  }
}

/// In-memory store that logs every find and put, in call order.
class LoggingStore final : public core::ResultStoreBase {
 public:
  struct Call {
    bool put = false;
    std::uint64_t key = 0;
  };

  bool find(std::uint64_t key, core::Metrics* /*out*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back({false, key});
    return false;
  }
  void put(std::uint64_t key, const core::Metrics& /*m*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back({true, key});
  }
  core::ResultStoreStats stats() const override { return {}; }

  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Call> calls_;
};

TEST(ResultStore, SweepStoresEachPointOnceItsPrefixHasFinished) {
  // A point's record is written as soon as every point before it has
  // finished, not at the end of the sweep, so a sweep that dies partway
  // keeps its finished prefix. A failing point (an invalid config) stops
  // the sweep; the points before it are in the store, and every record
  // lands in input order.
  std::vector<core::SystemConfig> cfgs = small_design_space();
  const core::EvalWorkload w = small_workload();
  // Learn each valid point's key from a one-thread sweep's lookups.
  std::vector<std::uint64_t> keys;
  {
    auto log = std::make_shared<LoggingStore>();
    core::Evaluator ev;
    ev.set_threads(1);
    ev.set_result_store(log);
    ev.sweep(cfgs, w);
    for (const LoggingStore::Call& c : log->calls()) {
      if (!c.put) keys.push_back(c.key);
    }
    ASSERT_EQ(keys.size(), cfgs.size());
    // One thread: each point is stored before the next one is looked up.
    const std::vector<LoggingStore::Call> calls = log->calls();
    ASSERT_EQ(calls.size(), 2 * cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      EXPECT_FALSE(calls[2 * i].put) << i;
      EXPECT_TRUE(calls[2 * i + 1].put) << i;
      EXPECT_EQ(calls[2 * i + 1].key, keys[i]) << i;
    }
  }

  constexpr std::size_t kBad = 2;
  core::SystemConfig bad = cfgs.front();
  bad.name = "svc-invalid";
  bad.logic_kgates = -1.0;
  cfgs.insert(cfgs.begin() + kBad, bad);
  keys.insert(keys.begin() + kBad, 0);  // never looked up: validate throws
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto log = std::make_shared<LoggingStore>();
    core::Evaluator ev;
    ev.set_threads(threads);
    ev.set_result_store(log);
    EXPECT_THROW(ev.sweep(cfgs, w), ConfigError);
    std::vector<std::size_t> stored;
    for (const LoggingStore::Call& c : log->calls()) {
      if (!c.put) continue;
      const auto it = std::find(keys.begin(), keys.end(), c.key);
      ASSERT_NE(it, keys.end());
      stored.push_back(static_cast<std::size_t>(it - keys.begin()));
    }
    ASSERT_GE(stored.size(), kBad);
    for (std::size_t i = 0; i < kBad; ++i) EXPECT_EQ(stored[i], i);
    for (std::size_t i = 1; i < stored.size(); ++i) {
      EXPECT_LT(stored[i - 1], stored[i]) << "records out of input order";
    }
  }
}

}  // namespace
}  // namespace edsim
