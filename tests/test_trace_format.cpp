// Coverage for the workload-compilation layer: the `.edtrc` binary trace
// format (round-trip identity, structured rejection of corrupt input),
// the CompiledTrace arena encoding, and the golden equivalence between
// ArenaReplayClient and the live generating clients — bit-identical
// controller stats in both per-cycle and fast-forward runs — plus the
// WorkloadCache that shares compiled arenas, whose hit/miss counters must
// not depend on thread timing, and the arena roster behind the Evaluator's
// warm-up checkpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clients/compiled_trace.hpp"
#include "clients/system.hpp"
#include "clients/trace_io.hpp"
#include "clients/workload_cache.hpp"
#include "common/error.hpp"
#include "core/evaluator.hpp"
#include "dram/presets.hpp"
#include "mpeg/trace_gen.hpp"

namespace edsim {
namespace {

using clients::ArenaReplayClient;
using clients::BinaryTraceReader;
using clients::BinaryTraceWriter;
using clients::CompiledRecord;
using clients::CompiledTrace;
using clients::CompiledTraceBuilder;
using clients::PacingKind;
using clients::TraceFileClient;
using clients::TraceRecord;

std::vector<TraceRecord> sample_records() {
  std::vector<TraceRecord> t;
  std::uint64_t cycle = 0;
  for (int i = 0; i < 200; ++i) {
    TraceRecord r;
    r.cycle = cycle;
    r.addr = static_cast<std::uint64_t>(i) * 4096 +
             static_cast<std::uint64_t>(i % 7) * 32;
    r.type = i % 3 == 0 ? dram::AccessType::kWrite : dram::AccessType::kRead;
    t.push_back(r);
    cycle += static_cast<std::uint64_t>(i % 5) * 100;
  }
  return t;
}

std::string to_binary(const std::vector<TraceRecord>& t) {
  std::ostringstream os(std::ios::binary);
  clients::write_trace_binary(os, t);
  return os.str();
}

void expect_records_eq(const std::vector<TraceRecord>& a,
                       const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle) << "record " << i;
    EXPECT_EQ(a[i].addr, b[i].addr) << "record " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "record " << i;
  }
}

// --- .edtrc binary format ---------------------------------------------------

TEST(BinaryTraceFormat, BinaryRoundTripIsIdentity) {
  const auto records = sample_records();
  std::istringstream in(to_binary(records), std::ios::binary);
  expect_records_eq(records, clients::parse_trace_binary(in));
}

TEST(BinaryTraceFormat, TextAndBinaryRoundTripsAgree) {
  const auto records = sample_records();
  std::ostringstream text;
  clients::write_trace(text, records);
  const auto from_text = clients::parse_trace_text(text.str());
  std::istringstream bin(to_binary(records), std::ios::binary);
  const auto from_binary = clients::parse_trace_binary(bin);
  expect_records_eq(from_text, from_binary);
}

TEST(BinaryTraceFormat, BinaryIsSmallerThanText) {
  const auto records = sample_records();
  std::ostringstream text;
  clients::write_trace(text, records);
  EXPECT_LT(to_binary(records).size(), text.str().size());
}

TEST(BinaryTraceFormat, RejectsBadMagic) {
  std::istringstream in(std::string("NOTRC\0\x02\x00", 8), std::ios::binary);
  try {
    clients::parse_trace_binary(in);
    FAIL() << "expected edsim::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTraceFormat);
  }
}

TEST(BinaryTraceFormat, RejectsTruncatedHeader) {
  std::istringstream in(std::string("EDTRC\0\x02", 7), std::ios::binary);
  EXPECT_THROW(clients::parse_trace_binary(in), Error);
}

TEST(BinaryTraceFormat, RejectsWrongVersion) {
  std::istringstream in(std::string("EDTRC\0\x07\x00\x00", 9),
                        std::ios::binary);
  try {
    clients::parse_trace_binary(in);
    FAIL() << "expected edsim::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTraceFormat);
  }
}

TEST(BinaryTraceFormat, RejectsTruncatedStreamWithRecordIndex) {
  const auto records = sample_records();
  const std::string blob = to_binary(records);
  // Chop the end marker plus the last record's payload.
  std::istringstream in(blob.substr(0, blob.size() - 4), std::ios::binary);
  try {
    clients::parse_trace_binary(in);
    FAIL() << "expected edsim::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTraceFormat);
    // The cycle field carries the index of the record being decoded.
    EXPECT_EQ(e.cycle(), records.size() - 1);
  }
}

TEST(BinaryTraceFormat, RejectsUnknownRecordMarkerAndReservedFlags) {
  const std::string header("EDTRC\0\x02\x00", 8);
  {
    std::istringstream in(header + '\x7f', std::ios::binary);
    EXPECT_THROW(clients::parse_trace_binary(in), Error);
  }
  {
    // Record marker then flags with a reserved bit set.
    std::istringstream in(header + '\x01' + '\x80', std::ios::binary);
    EXPECT_THROW(clients::parse_trace_binary(in), Error);
  }
}

TEST(BinaryTraceFormat, SingleByteCorruptionNeverCrashes) {
  // Every single-byte mutation must either still parse or throw a
  // structured Error — never crash or hang. Runs under ASan/UBSan via
  // scripts/sanitize.sh.
  const auto records = sample_records();
  const std::string blob = to_binary(records);
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (const unsigned delta : {0x01u, 0x80u, 0xffu}) {
      std::string bad = blob;
      bad[pos] = static_cast<char>(static_cast<unsigned char>(bad[pos]) ^
                                   delta);
      std::istringstream in(bad, std::ios::binary);
      try {
        (void)clients::parse_trace_binary(in);
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kTraceFormat);
      }
    }
  }
}

TEST(BinaryTraceFormat, StreamingWriterReaderAgreeWithWholeTraceHelpers) {
  const auto records = sample_records();
  std::ostringstream os(std::ios::binary);
  {
    BinaryTraceWriter w(os);
    for (const auto& r : records) w.write(r);
    w.finish();
  }
  EXPECT_EQ(os.str(), to_binary(records));
  std::istringstream in(os.str(), std::ios::binary);
  BinaryTraceReader reader(in);
  std::vector<TraceRecord> out;
  TraceRecord r;
  while (reader.next(r)) out.push_back(r);
  EXPECT_EQ(reader.records_read(), records.size());
  expect_records_eq(records, out);
}

TEST(BinaryTraceFormat, FileAutoDetectLoadsBothFormats) {
  const auto records = sample_records();
  const std::string dir = ::testing::TempDir();
  const std::string text_path = dir + "edsim_fmt_text.trace";
  const std::string bin_path = dir + "edsim_fmt_bin.edtrc";
  {
    std::ofstream f(text_path);
    clients::write_trace(f, records);
  }
  clients::save_trace_file_binary(bin_path, records);
  EXPECT_FALSE(clients::is_binary_trace_file(text_path));
  EXPECT_TRUE(clients::is_binary_trace_file(bin_path));
  expect_records_eq(records, clients::load_trace_auto(text_path));
  expect_records_eq(records, clients::load_trace_auto(bin_path));
  expect_records_eq(records, clients::load_trace_file_binary(bin_path));
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

// --- CompiledTrace arena ----------------------------------------------------

TEST(CompiledTrace, TraceRecordsCompileAndDecodeBack) {
  const auto records = sample_records();
  const auto trace = clients::compile_trace_records(records, 32);
  ASSERT_EQ(trace->size(), records.size());
  const auto decoded = trace->decode_all();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded[i].pacing, PacingKind::kAtCycle);
    EXPECT_EQ(decoded[i].param, records[i].cycle) << "record " << i;
    EXPECT_EQ(decoded[i].addr, records[i].addr - records[i].addr % 32);
    EXPECT_EQ(decoded[i].type, records[i].type);
    EXPECT_EQ(decoded[i].tag, i);  // implicit tag
  }
  // Delta+varint encoding should be dense: well under 16 bytes/record.
  EXPECT_LT(trace->arena_bytes(), records.size() * 16);
}

TEST(CompiledTrace, ExplicitTagsSurviveEncoding) {
  CompiledTraceBuilder b;
  for (std::uint64_t i = 0; i < 10; ++i) {
    CompiledRecord r;
    r.addr = i * 64;
    r.tag = 1 + i / 3;  // constant across groups, like MC block tags
    r.pacing = i % 3 == 0 ? PacingKind::kPacedClock : PacingKind::kImmediate;
    r.param = i % 3 == 0 ? 50 : 0;
    b.add(r);
  }
  const auto trace = b.build();
  const auto decoded = trace->decode_all();
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(decoded[i].tag, 1 + i / 3) << "record " << i;
    EXPECT_EQ(decoded[i].pacing,
              i % 3 == 0 ? PacingKind::kPacedClock : PacingKind::kImmediate);
  }
}

TEST(CompiledTrace, ContentHashDistinguishesTraces) {
  auto records = sample_records();
  const auto a = clients::compile_trace_records(records, 32);
  const auto b = clients::compile_trace_records(records, 32);
  EXPECT_EQ(a->content_hash(), b->content_hash());
  records[17].addr ^= 64;
  const auto c = clients::compile_trace_records(records, 32);
  EXPECT_NE(a->content_hash(), c->content_hash());
}

TEST(CompiledTrace, OutOfOrderCyclesRejected) {
  CompiledTraceBuilder b;
  CompiledRecord r;
  r.pacing = PacingKind::kAtCycle;
  r.param = 100;
  b.add(r);
  r.param = 99;
  r.tag = 1;
  EXPECT_THROW(b.add(r), ConfigError);
}

// --- golden equivalence: replay vs live generators --------------------------

struct StatsSnapshot {
  std::uint64_t reads, writes, row_hits, row_misses, row_conflicts;
  std::uint64_t activations, precharges, bytes;
  std::uint64_t lat_count;
  double lat_sum, lat_mean;
  std::vector<std::uint64_t> client_issued, client_completed, client_bytes,
      client_stalls;
};

StatsSnapshot run_system(const dram::DramConfig& cfg,
                         std::unique_ptr<clients::Client> client,
                         std::uint64_t window, bool fast_forward) {
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  sys.set_fast_forward(fast_forward);
  sys.add_client(std::move(client));
  sys.run(window);
  const auto& s = sys.controller().stats();
  StatsSnapshot out;
  out.reads = s.reads;
  out.writes = s.writes;
  out.row_hits = s.row_hits;
  out.row_misses = s.row_misses;
  out.row_conflicts = s.row_conflicts;
  out.activations = s.activations;
  out.precharges = s.precharges;
  out.bytes = s.bytes_transferred;
  out.lat_count = s.read_latency.count();
  out.lat_sum = s.read_latency.sum();
  out.lat_mean = s.read_latency.mean();
  for (std::size_t i = 0; i < sys.client_count(); ++i) {
    const auto& c = sys.client_stats(i);
    out.client_issued.push_back(c.issued);
    out.client_completed.push_back(c.completed);
    out.client_bytes.push_back(c.bytes);
    out.client_stalls.push_back(c.stall_cycles);
  }
  return out;
}

void expect_snapshot_eq(const StatsSnapshot& a, const StatsSnapshot& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.lat_count, b.lat_count);
  EXPECT_EQ(a.lat_sum, b.lat_sum);
  EXPECT_EQ(a.lat_mean, b.lat_mean);
  EXPECT_EQ(a.client_issued, b.client_issued);
  EXPECT_EQ(a.client_completed, b.client_completed);
  EXPECT_EQ(a.client_bytes, b.client_bytes);
  EXPECT_EQ(a.client_stalls, b.client_stalls);
}

TEST(ArenaReplayGolden, StreamClientBitIdentical) {
  dram::DramConfig cfg;
  clients::StreamClient::Params p;
  p.base = 4096;
  p.length = 1 << 18;
  p.burst_bytes = cfg.bytes_per_access();
  p.type = dram::AccessType::kWrite;
  p.period_cycles = 9;
  p.total_requests = 700;
  p.start_cycle = 37;
  const std::uint64_t window = 25'000;
  const auto arena = clients::compile_stream(p);
  for (const bool ff : {false, true}) {
    SCOPED_TRACE(ff ? "fast-forward" : "per-cycle");
    const auto live = run_system(
        cfg, std::make_unique<clients::StreamClient>(0, "s", p), window, ff);
    const auto replay = run_system(
        cfg, std::make_unique<ArenaReplayClient>(0, "s", arena), window, ff);
    expect_snapshot_eq(live, replay);
  }
}

TEST(ArenaReplayGolden, EndlessStreamWithinBudgetBitIdentical) {
  dram::DramConfig cfg;
  clients::StreamClient::Params p;
  p.length = 1 << 18;
  p.burst_bytes = cfg.bytes_per_access();
  p.period_cycles = 14;
  p.total_requests = 0;  // endless: replay uses the window budget bound
  const std::uint64_t window = 30'000;
  const std::uint64_t budget = window / p.period_cycles + 2;
  const auto arena = clients::compile_stream(p, budget);
  for (const bool ff : {false, true}) {
    SCOPED_TRACE(ff ? "fast-forward" : "per-cycle");
    const auto live = run_system(
        cfg, std::make_unique<clients::StreamClient>(0, "s", p), window, ff);
    const auto replay = run_system(
        cfg, std::make_unique<ArenaReplayClient>(0, "s", arena), window, ff);
    expect_snapshot_eq(live, replay);
  }
}

TEST(ArenaReplayGolden, StridedClientBitIdentical) {
  dram::DramConfig cfg;
  clients::StridedClient::Params p;
  p.length = 1 << 18;
  p.burst_bytes = cfg.bytes_per_access();
  p.stride_bytes = 4096;
  p.period_cycles = 11;
  p.total_requests = 600;
  const auto arena = clients::compile_strided(p);
  for (const bool ff : {false, true}) {
    SCOPED_TRACE(ff ? "fast-forward" : "per-cycle");
    const auto live = run_system(
        cfg, std::make_unique<clients::StridedClient>(0, "st", p), 25'000, ff);
    const auto replay = run_system(
        cfg, std::make_unique<ArenaReplayClient>(0, "st", arena), 25'000, ff);
    expect_snapshot_eq(live, replay);
  }
}

TEST(ArenaReplayGolden, RandomClientBitIdentical) {
  dram::DramConfig cfg;
  clients::RandomClient::Params p;
  p.length = 1 << 18;
  p.burst_bytes = cfg.bytes_per_access();
  p.read_fraction = 0.6;
  p.period_cycles = 7;
  p.total_requests = 900;
  p.seed = 0xfeedbeef;
  const auto arena = clients::compile_random(p);
  for (const bool ff : {false, true}) {
    SCOPED_TRACE(ff ? "fast-forward" : "per-cycle");
    const auto live = run_system(
        cfg, std::make_unique<clients::RandomClient>(0, "r", p), 25'000, ff);
    const auto replay = run_system(
        cfg, std::make_unique<ArenaReplayClient>(0, "r", arena), 25'000, ff);
    expect_snapshot_eq(live, replay);
  }
}

TEST(ArenaReplayGolden, McClientBitIdentical) {
  dram::DramConfig cfg;
  mpeg::McClient::Params p;
  p.region_bytes = 1 << 20;
  p.pitch_bytes = 720;
  p.burst_bytes = cfg.bytes_per_access();
  p.block_period_cycles = 120;
  p.total_blocks = 150;
  p.seed = 99;
  const auto arena = mpeg::compile_mc(p);
  ASSERT_EQ(arena->size(), p.total_blocks * p.rows_per_block);
  for (const bool ff : {false, true}) {
    SCOPED_TRACE(ff ? "fast-forward" : "per-cycle");
    const auto live = run_system(cfg, std::make_unique<mpeg::McClient>(0, p),
                                 40'000, ff);
    const auto replay = run_system(
        cfg, std::make_unique<ArenaReplayClient>(0, "mc", arena), 40'000, ff);
    expect_snapshot_eq(live, replay);
  }
}

TEST(ArenaReplayGolden, TraceClientBitIdentical) {
  dram::DramConfig cfg;
  const auto records = sample_records();
  const unsigned burst = cfg.bytes_per_access();
  const auto arena = clients::compile_trace_records(records, burst);
  for (const bool ff : {false, true}) {
    SCOPED_TRACE(ff ? "fast-forward" : "per-cycle");
    const auto live = run_system(
        cfg, std::make_unique<clients::TraceClient>(0, "t", records, burst),
        60'000, ff);
    const auto replay = run_system(
        cfg, std::make_unique<ArenaReplayClient>(0, "t", arena), 60'000, ff);
    expect_snapshot_eq(live, replay);
  }
}

TEST(ArenaReplayGolden, CompiledDecoderMatchesLiveDecoderClients) {
  // Full §4.1 decoder mix: the compiled-arena system must reproduce the
  // generator system's controller stats bit-for-bit.
  const mpeg::DecoderModel model{mpeg::DecoderConfig{}};
  const mpeg::MemoryMap map = model.build_memory_map();
  const std::uint64_t window = 30'000;

  const dram::DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);

  clients::MemorySystem live(cfg, clients::ArbiterKind::kRoundRobin);
  mpeg::add_decoder_clients(live, model, map);
  live.run(window);

  clients::MemorySystem replay(cfg, clients::ArbiterKind::kRoundRobin);
  mpeg::add_compiled_decoder_clients(replay, model, map, window);
  replay.run(window);

  const auto& a = live.controller().stats();
  const auto& b = replay.controller().stats();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.read_latency.sum(), b.read_latency.sum());
  ASSERT_EQ(live.client_count(), replay.client_count());
  for (std::size_t i = 0; i < live.client_count(); ++i) {
    EXPECT_EQ(live.client_stats(i).issued, replay.client_stats(i).issued)
        << "client " << i;
    EXPECT_EQ(live.client_stats(i).completed, replay.client_stats(i).completed)
        << "client " << i;
  }
}

// --- TraceFileClient: parse once, share, rewind -----------------------------

TEST(TraceFileClient, ParsesOnceSharesArenaAndRewindsWithoutReparse) {
  const auto records = sample_records();
  const std::string path = ::testing::TempDir() + "edsim_tfc.trace";
  {
    std::ofstream f(path);
    clients::write_trace(f, records);
  }
  auto first = std::make_unique<TraceFileClient>(0, "tf", path, 32u);
  EXPECT_EQ(first->trace()->size(), records.size());

  // "Copies" share the immutable arena: no second parse of the file.
  auto second = std::make_unique<TraceFileClient>(1, "tf2", first->trace());
  EXPECT_EQ(second->trace().get(), first->trace().get());

  // Delete the backing file: reset() and sharing must keep working,
  // proving no path re-reads the file.
  std::remove(path.c_str());
  while (!first->finished()) first->make_request(first->next_request_cycle(0));
  EXPECT_EQ(first->position(), records.size());
  first->reset();
  EXPECT_EQ(first->position(), 0u);
  EXPECT_FALSE(first->finished());
  const dram::Request again = first->make_request(records.front().cycle);
  EXPECT_EQ(again.addr, records.front().addr - records.front().addr % 32);

  auto third = std::make_unique<TraceFileClient>(2, "tf3", first->trace());
  EXPECT_EQ(third->trace()->size(), records.size());
}

TEST(TraceFileClient, LoadsBinaryTracesByMagic) {
  const auto records = sample_records();
  const std::string path = ::testing::TempDir() + "edsim_tfc_bin.edtrc";
  clients::save_trace_file_binary(path, records);
  TraceFileClient c(0, "tfb", path, 32u);
  EXPECT_EQ(c.trace()->size(), records.size());
  std::remove(path.c_str());
}

// --- WorkloadCache ----------------------------------------------------------

TEST(WorkloadCache, HitsMissesAndSharing) {
  clients::WorkloadCache cache;
  clients::StreamClient::Params p;
  p.length = 1 << 16;
  p.burst_bytes = 32;
  p.total_requests = 50;
  const std::uint64_t key = clients::compile_key(p, 0);
  int compiles = 0;
  const auto compile = [&] {
    ++compiles;
    return clients::compile_stream(p);
  };
  const auto a = cache.get_or_compile(key, compile);
  const auto b = cache.get_or_compile(key, compile);
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.arena_bytes(), a->arena_bytes());
  EXPECT_EQ(cache.find(key).get(), a.get());
  EXPECT_EQ(cache.find(key + 1), nullptr);

  p.total_requests = 60;  // different params -> different key
  EXPECT_NE(clients::compile_key(p, 0), key);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(WorkloadCache, LostCompileRaceCountsAsHit) {
  // Every thread misses, then blocks inside its compile until all of them
  // are there, so all N compile the same key and N-1 lose the insert.
  constexpr int kThreads = 4;
  clients::WorkloadCache cache;
  clients::StreamClient::Params p;
  p.length = 1 << 16;
  p.burst_bytes = 32;
  p.total_requests = 50;
  const std::uint64_t key = clients::compile_key(p, 0);
  std::latch all_compiling(kThreads);
  const auto compile = [&] {
    all_compiling.arrive_and_wait();
    return clients::compile_stream(p);
  };
  std::vector<std::shared_ptr<const clients::CompiledTrace>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back(
        [&, i] { got[i] = cache.get_or_compile(key, compile); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.entries(), 1u);
  for (const auto& arena : got) EXPECT_EQ(arena.get(), got.front().get());
}

// --- Evaluator memoization --------------------------------------------------

TEST(EvaluatorMemo, SecondEvaluationIsAMemoHit) {
  core::SystemConfig cfg;
  cfg.name = "memo-test";
  core::EvalWorkload w;
  w.sim_cycles = 10'000;

  core::Evaluator ev;
  const core::Metrics first = ev.evaluate(cfg, w);
  EXPECT_EQ(ev.memo_hits(), 0u);
  EXPECT_EQ(ev.memo_entries(), 1u);
  const core::Metrics second = ev.evaluate(cfg, w);
  EXPECT_EQ(ev.memo_hits(), 1u);
  EXPECT_EQ(first.sustained_gbyte_s, second.sustained_gbyte_s);
  EXPECT_EQ(first.unit_cost_usd, second.unit_cost_usd);

  // Any workload change invalidates the key.
  w.seed += 1;
  ev.evaluate(cfg, w);
  EXPECT_EQ(ev.memo_hits(), 1u);
  EXPECT_EQ(ev.memo_entries(), 2u);

  // Evaluations run live clients: no arena is compiled.
  EXPECT_EQ(ev.workload_cache().misses(), 0u);

  ev.clear_caches();
  EXPECT_EQ(ev.memo_entries(), 0u);
  EXPECT_EQ(ev.workload_cache().entries(), 0u);
}

TEST(EvaluatorMemo, CacheStatsTracksAllThreeCaches) {
  core::SystemConfig cfg;
  cfg.name = "stats-test";
  core::EvalWorkload w;
  w.sim_cycles = 8'000;
  w.warmup_cycles = 4'000;

  core::Evaluator ev;
  const core::Metrics base = ev.evaluate(cfg, w);
  core::Evaluator::CacheStats cs = ev.cache_stats();
  // First evaluation: the channel shape is a miss, simulated with live
  // clients (no arena is compiled).
  EXPECT_EQ(ev.workload_cache().misses(), 0u);
  EXPECT_EQ(cs.memo_hits, 0u);
  EXPECT_EQ(cs.memo_entries, 1u);
  EXPECT_EQ(cs.shape_hits, 0u);
  EXPECT_EQ(cs.shape_entries, 1u);

  ev.evaluate(cfg, w);  // pure memo hit: no new shape traffic
  cs = ev.cache_stats();
  EXPECT_EQ(cs.memo_hits, 1u);
  EXPECT_EQ(cs.memo_entries, 1u);
  EXPECT_EQ(cs.shape_hits, 0u);
  EXPECT_EQ(cs.shape_entries, 1u);

  // A variant with another process, logic size and name keeps the
  // channel shape: it reads the shared simulation and computes its own
  // area and cost from it.
  core::SystemConfig variant = cfg;
  variant.name = "stats-test-variant";
  variant.process = core::BaseProcess::kMerged;
  variant.logic_kgates = cfg.logic_kgates * 2.0;
  const core::Metrics v = ev.evaluate(variant, w);
  cs = ev.cache_stats();
  EXPECT_EQ(cs.shape_hits, 1u);
  EXPECT_EQ(cs.shape_entries, 1u);
  EXPECT_EQ(cs.memo_entries, 2u);
  EXPECT_EQ(v.sustained_gbyte_s, base.sustained_gbyte_s);
  EXPECT_EQ(v.avg_read_latency_ns, base.avg_read_latency_ns);
  EXPECT_NE(v.logic_area_mm2, base.logic_area_mm2);
  EXPECT_NE(v.unit_cost_usd, base.unit_cost_usd);

  // Another channel is one more entry per shape, not a hit.
  core::SystemConfig wider = cfg;
  wider.name = "stats-test-wider";
  wider.interface_bits = cfg.interface_bits * 2;
  ev.evaluate(wider, w);
  cs = ev.cache_stats();
  EXPECT_EQ(cs.shape_hits, 1u);
  EXPECT_EQ(cs.shape_entries, 2u);
  // So is another workload, down to the seed.
  core::EvalWorkload reseeded = w;
  reseeded.seed += 1;
  ev.evaluate(cfg, reseeded);
  cs = ev.cache_stats();
  EXPECT_EQ(cs.shape_hits, 1u);
  EXPECT_EQ(cs.shape_entries, 3u);

  EXPECT_EQ(ev.workload_cache().entries(), 0u);

  ev.clear_caches();
  cs = ev.cache_stats();
  EXPECT_EQ(cs.memo_entries, 0u);
  EXPECT_EQ(cs.shape_hits, 0u);
  EXPECT_EQ(cs.shape_entries, 0u);
  // Cleared means re-simulated: the variant misses again.
  ev.evaluate(variant, w);
  EXPECT_EQ(ev.cache_stats().shape_entries, 1u);
  EXPECT_EQ(ev.cache_stats().shape_hits, 0u);
}

// --- Evaluator warm-up checkpoint ----------------------------------------
// perfbench's design_sweep probe rebuilds the Evaluator's roster by hand
// from its public inputs (arena replay clients, the Evaluator's pacing and
// budget) and requires the replica's warm-up snapshot to equal
// warmup_checkpoint byte for byte. This is that replica: a change to the
// Evaluator's roster, pacing or arena budget fails here first.

std::vector<std::uint8_t> hand_built_warmup_snapshot(
    const core::SystemConfig& c, const core::EvalWorkload& w) {
  const dram::DramConfig cfg = c.dram_config();
  const unsigned burst = cfg.bytes_per_access();
  const std::uint64_t region =
      std::min<std::uint64_t>(c.installed_memory().byte_count(), 8u << 20);
  const unsigned n = w.stream_clients + w.random_clients;
  const double bytes_per_cycle =
      w.demand_gbyte_s * 1e9 / static_cast<double>(n) / cfg.clock.hz();
  const unsigned period = std::max<unsigned>(
      1, static_cast<unsigned>(static_cast<double>(burst) / bytes_per_cycle));
  const std::uint64_t budget = (w.warmup_cycles + w.sim_cycles) / period + 2;

  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  unsigned id = 0;
  for (unsigned i = 0; i < w.stream_clients; ++i, ++id) {
    clients::StreamClient::Params p;
    p.base = region / n * id;
    p.length = region / n;
    p.burst_bytes = burst;
    p.type = i % 2 == 0 ? dram::AccessType::kRead : dram::AccessType::kWrite;
    p.period_cycles = period;
    sys.add_client(std::make_unique<ArenaReplayClient>(
        id, "stream" + std::to_string(i), clients::compile_stream(p, budget)));
  }
  for (unsigned i = 0; i < w.random_clients; ++i, ++id) {
    clients::RandomClient::Params p;
    p.base = region / n * id;
    p.length = region / n;
    p.burst_bytes = burst;
    p.period_cycles = period;
    p.seed = w.seed + i;
    sys.add_client(std::make_unique<ArenaReplayClient>(
        id, "random" + std::to_string(i), clients::compile_random(p, budget)));
  }
  sys.run(w.warmup_cycles);
  return sys.save_snapshot();
}

TEST(EvaluatorCheckpoint, WarmupCheckpointMatchesHandBuiltArenaReplica) {
  core::SystemConfig embedded;
  embedded.name = "dram-based/64b";
  embedded.interface_bits = 64;
  embedded.banks = 4;
  embedded.page_bytes = 2048;
  core::SystemConfig discrete;
  discrete.name = "discrete/16b";
  discrete.integration = core::Integration::kDiscrete;
  discrete.interface_bits = 16;
  core::EvalWorkload w;  // design_explorer's workload, shorter window
  w.demand_gbyte_s = 2.0;
  w.sim_cycles = 20'000;
  w.warmup_cycles = 5'000;

  for (const core::SystemConfig& c : {embedded, discrete}) {
    SCOPED_TRACE(c.name);
    core::Evaluator ev;
    const auto checkpoint = ev.warmup_checkpoint(c, w);
    ASSERT_NE(checkpoint, nullptr);
    EXPECT_EQ(*checkpoint, hand_built_warmup_snapshot(c, w));
    // The checkpoint's arenas are the only ones the Evaluator compiles:
    // an evaluation runs live clients and never looks an arena up.
    const clients::WorkloadCache& arenas = ev.workload_cache();
    const unsigned n = w.stream_clients + w.random_clients;
    EXPECT_EQ(arenas.entries(), n);
    ev.evaluate(c, w);
    EXPECT_EQ(arenas.hits() + arenas.misses(), n);
  }

  core::EvalWorkload cold = w;
  cold.warmup_cycles = 0;
  EXPECT_EQ(core::Evaluator{}.warmup_checkpoint(embedded, cold), nullptr);
}

TEST(EvaluatorMemo, ContentHashesSeparateConfigsAndWorkloads) {
  core::SystemConfig a;
  a.name = "a";
  core::SystemConfig b = a;
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.interface_bits = a.interface_bits == 128 ? 256 : 128;
  EXPECT_NE(a.content_hash(), b.content_hash());
  b = a;
  b.name = "b";
  EXPECT_NE(a.content_hash(), b.content_hash());

  core::EvalWorkload w1;
  core::EvalWorkload w2 = w1;
  EXPECT_EQ(w1.content_hash(), w2.content_hash());
  w2.demand_gbyte_s += 0.25;
  EXPECT_NE(w1.content_hash(), w2.content_hash());
}

}  // namespace
}  // namespace edsim
