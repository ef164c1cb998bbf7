#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/evaluator.hpp"

namespace edsim::service {

/// Version byte of the `EDRS` store envelope. Bump on any change to the
/// record layout (it covers the wire.hpp Metrics encoding and the
/// kSnapshotVersion each record is sealed with); the reader rejects
/// mismatches with Error{kStoreFormat} instead of misinterpreting bytes.
inline constexpr std::uint8_t kResultStoreVersion = 3;

/// Content-addressed, on-disk evaluation cache: an append log of
/// (result_key, Metrics) records behind the in-memory memo, so design
/// sweeps warm-start across processes and machines.
///
/// File layout:
///
///   "EDRS" magic | version byte | record...
///   record := varint blob_len | sealed snapshot blob
///   blob payload := varint key | Metrics fields (service/wire.hpp)
///
/// Each record body is a common/snapshot envelope, so every record
/// carries its own magic/version/checksum. Writes are crash-safe by
/// construction: a record is appended with one write, so a crash can
/// only ever leave a *torn tail* — a partial
/// final record — which open() detects, drops, counts in
/// stats().recovered_tail_records, and truncates away so the next append
/// starts from a clean boundary. Corruption anywhere *before* the tail
/// (a mid-file flip or a foreign file) is unrecoverable by appending and
/// raises Error{kStoreFormat}; the store never returns a metrics vector
/// that differs from what was put.
///
/// An append that fails (disk full, file-size limit) is cut back to the
/// last record boundary before put() throws, and the key stays absent,
/// so the file never holds torn bytes in front of a later record.
///
/// Thread-safe within one process. A single writer process is assumed
/// per file; concurrent readers of an already-written file are fine.
class ResultStore final : public core::ResultStoreBase {
 public:
  /// Opens (replaying the log) or creates the store at `path`.
  explicit ResultStore(std::string path);
  ~ResultStore() override;

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  bool find(std::uint64_t key, core::Metrics* out) override;
  void put(std::uint64_t key, const core::Metrics& m) override;
  core::ResultStoreStats stats() const override;

  const std::string& path() const { return path_; }
  std::size_t entries() const;

 private:
  void open_or_create();

  mutable std::mutex mu_;
  std::string path_;
  std::unordered_map<std::uint64_t, core::Metrics> map_;
  core::ResultStoreStats stats_;
  int fd_ = -1;            ///< append-only handle
  std::uint64_t end_ = 0;  ///< file size at the last record boundary
};

}  // namespace edsim::service
